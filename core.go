package repro

// The shape-independent half of the facade. A standalone board is the
// one-node case of a placed system, so everything a debugging setup does
// above the target — the model pipeline, the run loop, checkpoints,
// rewinds, rendering — lives once, on Core, over a target.Target.
// Debugger and ClusterDebugger only build the target and its command
// interfaces.

import (
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/comdes"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metamodel"
	"repro/internal/target"
)

// sliceNs is the run loop's pump granularity: events are processed and
// the recorder observes once per millisecond of virtual time.
const sliceNs = checkpoint.DefaultSliceNs

// Core is what every debugging setup shares whatever its target's shape:
// the model pipeline (COMDES system → MOF model → GDM), the one engine
// session animating the GDM, the per-node command channels and the
// optional checkpoint recorder. Debugger and ClusterDebugger embed it;
// code that drives either kind holds a *Core.
type Core struct {
	Sys     *comdes.System
	Meta    *metamodel.Metamodel
	Model   *metamodel.Model
	GDM     *core.GDM
	Session *engine.Session
	// Serials maps node name -> that node's host-side command channel
	// (active nodes only; nil on a passive board). The session polls them
	// in sorted node order; the first node's channel doubles as the
	// session's RemoteDebug path.
	Serials map[string]*engine.SerialSource
	// Recorder is non-nil once EnableCheckpointing has run.
	Recorder *checkpoint.Recorder

	target target.Target
	nodes  []string
	boards []*target.Board // in node order
}

// init runs the model pipeline for sys over target t and opens the
// session on it. mapping nil means the default COMDES mapping.
func (c *Core) init(sys *comdes.System, mapping *core.Mapping, t target.Target) error {
	meta := comdes.Metamodel()
	model, err := comdes.ToModel(sys, meta)
	if err != nil {
		return err
	}
	if mapping == nil {
		mapping = engine.DefaultCOMDESMapping()
	}
	gdm, err := core.Abstract(model, mapping)
	if err != nil {
		return err
	}
	if err := engine.BindCOMDES(gdm); err != nil {
		return err
	}
	c.Sys, c.Meta, c.Model, c.GDM = sys, meta, model, gdm
	c.target, c.nodes = t, t.Nodes()
	for _, node := range c.nodes {
		c.boards = append(c.boards, t.Board(node))
	}
	c.Session = engine.NewSession(gdm, haltAll(c.boards))
	return nil
}

// addSerial opens node's active command interface and attaches it to the
// session.
func (c *Core) addSerial(node string) {
	src := engine.NewSerialSource(c.target.Board(node).HostPort())
	if c.Serials == nil {
		c.Serials = make(map[string]*engine.SerialSource)
	}
	c.Serials[node] = src
	c.Session.AddSource(src)
}

// haltAll adapts a target's boards to engine.TargetControl: the session's
// pause button halts every node (a global debug freeze on the shared
// virtual clock).
type haltAll []*target.Board

func (h haltAll) Halt() {
	for _, b := range h {
		b.Halt()
	}
}

func (h haltAll) Resume() {
	for _, b := range h {
		b.Resume()
	}
}

func (h haltAll) Halted() bool {
	for _, b := range h {
		if !b.Halted() {
			return false
		}
	}
	return len(h) > 0
}

// Target returns the debug target: the board or the cluster.
func (c *Core) Target() target.Target { return c.target }

// Now returns the target's virtual time in nanoseconds.
func (c *Core) Now() uint64 { return c.target.Now() }

// Run advances the target and the debugger for dur of virtual time,
// pumping events every millisecond of target time. It returns early when
// a model-level breakpoint pauses the session.
func (c *Core) Run(dur time.Duration) error {
	return c.RunNs(uint64(dur.Nanoseconds()))
}

// RunNs is Run in raw nanoseconds of virtual time. It stops with an error
// at the first slice after generated code on any node faults.
func (c *Core) RunNs(durNs uint64) error {
	end := c.target.Now() + durNs
	for c.target.Now() < end {
		if c.Session.Paused() {
			return nil
		}
		c.target.RunUntil(c.target.Now() + sliceNs)
		now := c.target.Now()
		if _, err := c.Session.ProcessEvents(now); err != nil {
			return err
		}
		for i, b := range c.boards {
			if err := b.Err(); err != nil {
				return fmt.Errorf("repro: node %s: %w", c.nodes[i], err)
			}
		}
		if c.Recorder != nil {
			if err := c.Recorder.Observe(now); err != nil {
				return err
			}
		}
	}
	return nil
}

// EnableCheckpointing attaches a checkpoint recorder to the session: an
// initial checkpoint is taken now and further ones every interval of
// virtual time, while every node's environment inputs and wire commands
// are logged. The session gains working RewindTo/ReplayUntil
// (reverse-step to the last checkpoint, deterministically re-execute
// forward — on a cluster, the exact bus frame interleaving too). Enable
// after arming standing breakpoints so the initial checkpoint carries
// them.
func (c *Core) EnableCheckpointing(interval time.Duration) (*checkpoint.Recorder, error) {
	if c.Recorder != nil {
		return c.Recorder, nil
	}
	rec, err := checkpoint.Attach(c.target, c.Session, c.Serials, uint64(interval.Nanoseconds()))
	if err != nil {
		return nil, err
	}
	c.Recorder = rec
	c.Session.AttachRewinder(rec)
	return rec, nil
}

// Checkpoint captures the complete execution state — every board (and on
// a cluster the bus: frames queued and in flight, the shared clock), the
// session trace and the command channels — as one serializable value
// (see checkpoint.Checkpoint.WriteFile for the cross-process form).
func (c *Core) Checkpoint() (*checkpoint.Checkpoint, error) {
	return checkpoint.Capture(c.target, c.Session, c.Serials)
}

// RestoreCheckpoint rewinds the debugger — target, session trace,
// breakpoints, command channels — to a checkpoint taken from a debugger
// built from the same model (this process or another).
func (c *Core) RestoreCheckpoint(cp *checkpoint.Checkpoint) error {
	return checkpoint.Apply(cp, c.target, c.Session, c.Serials)
}

// Continue resumes after a breakpoint and keeps running for dur.
func (c *Core) Continue(dur time.Duration) error {
	c.Session.Continue()
	return c.Run(dur)
}

// StepEvent resumes until exactly one model-level event has been handled.
func (c *Core) StepEvent(maxWait time.Duration) error {
	c.Session.Step()
	return c.Run(maxWait)
}

// StepOnTarget asks the target-resident agent to run to the next model
// event and halt there (InStep over the active interface), then waits for
// the EvStepped confirmation. Falls back to host-side stepping on
// passive sessions.
func (c *Core) StepOnTarget(maxWait time.Duration) error {
	c.Session.StepTarget()
	return c.Run(maxWait)
}

// RenderSVG renders the current animated model view.
func (c *Core) RenderSVG() string { return c.GDM.Scene().SVG() }

// RenderASCII renders the current animated model view for terminals.
func (c *Core) RenderASCII() string { return c.GDM.Scene().ASCII(0, 0) }

// TimingDiagramASCII renders the recorded trace as a timing diagram; on a
// TDMA cluster the "bus" track is the slot-grid lane (value = transmitting
// node, 'x' marks = lost frames).
func (c *Core) TimingDiagramASCII(width int) string {
	return c.Session.Trace.TimingDiagram().ASCII(width)
}
