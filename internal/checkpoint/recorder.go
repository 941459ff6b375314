package checkpoint

import (
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/protocol"
	"repro/internal/target"
	"repro/internal/value"
)

// DefaultIntervalNs is the periodic checkpoint cadence when Attach is
// given zero (250 virtual milliseconds).
const DefaultIntervalNs = 250_000_000

// DefaultSliceNs is the pump granularity, matching the facade's run loop
// (1 ms of virtual time per slice) so replayed host receive stamps land on
// the same grid as the original run.
const DefaultSliceNs = 1_000_000

// InputRecord is one logged WriteInput stimulus.
type InputRecord struct {
	At    uint64        `json:"at"`
	Actor string        `json:"actor"`
	Port  string        `json:"port"`
	Val   value.Encoded `json:"val"`
}

// InstrRecord is one logged host-to-target wire instruction on a named
// node's command channel.
type InstrRecord struct {
	At   uint64               `json:"at"`
	Node string               `json:"node"`
	In   protocol.Instruction `json:"in"`
}

// Recorder implements record-and-revisit debugging over a debug target —
// a standalone board or a whole cluster. It takes periodic checkpoints
// while logging the two non-deterministic input streams (environment
// WriteInputs and host wire instructions), and replays them during
// RewindTo/ReplayUntil so re-execution from a checkpoint reproduces the
// original timeline exactly. Everything else in a cluster run — bus
// arbitration, frame loss, jitter — is drawn from the network's seeded
// RNG, which the checkpoints capture. The logs are one global sequence:
// the nodes share one virtual clock and run in a deterministic order, so
// a single cursor replays events in the order they originally
// interleaved. Actor names are unique system-wide, so an input record
// needs no node: replay finds the board from the actor. It satisfies
// engine.Rewinder; attach it with Session.AttachRewinder.
type Recorder struct {
	Target  target.Target
	Session *engine.Session
	// Serials maps node name -> that node's command channel; passive
	// nodes have none.
	Serials map[string]*engine.SerialSource

	// IntervalNs is the periodic checkpoint cadence in virtual time.
	IntervalNs uint64
	// SliceNs is the replay pump granularity; it must match the cadence the
	// live session pumps events at for receive stamps to reproduce.
	SliceNs uint64

	// MaxCheckpoints bounds the retained checkpoint list (each checkpoint
	// carries every node's RAM image and a trace copy, so an unbounded list
	// grows quadratically over very long runs). When the cap is hit the
	// oldest periodic checkpoint after the initial one is evicted — rewinds
	// reach the whole run, at coarser granularity near the beginning. Zero
	// means DefaultMaxCheckpoints.
	MaxCheckpoints int

	boards []*target.Board // in node order

	cps    []*Checkpoint
	lastCp uint64

	// inputs are environment stimuli written during PreLatch (replayed at
	// the same release sites); manual are stimuli written outside it —
	// user pokes between run slices, a cluster's pre-release refresh —
	// replayed at pump boundaries.
	inputs []InputRecord
	manual []InputRecord
	instrs []InstrRecord
	inEnv  bool

	// frontier is the farthest instant the live timeline has reached; below
	// it the logs are authoritative and the recorder replays instead of
	// recording.
	frontier  uint64
	replaying bool
	inPtr     int
	manPtr    int
	insPtr    int
}

// DefaultMaxCheckpoints is the retained-checkpoint cap when
// Recorder.MaxCheckpoints is zero.
const DefaultMaxCheckpoints = 64

// Attach interposes a recorder on every node of a target + session pair
// and takes the initial checkpoint. Attach after arming any standing
// breakpoints (the initial checkpoint carries them) and after any
// restore. intervalNs zero means DefaultIntervalNs.
func Attach(t target.Target, s *engine.Session, serials map[string]*engine.SerialSource, intervalNs uint64) (*Recorder, error) {
	if intervalNs == 0 {
		intervalNs = DefaultIntervalNs
	}
	r := &Recorder{
		Target: t, Session: s, Serials: serials,
		IntervalNs: intervalNs, SliceNs: DefaultSliceNs,
		frontier: t.Now(),
	}
	for _, node := range t.Nodes() {
		b := t.Board(node)
		r.boards = append(r.boards, b)
		env := b.PreLatch
		b.PreLatch = func(now uint64, actor string) { r.preLatch(b, env, now, actor) }
		b.OnInput = r.logInput
		if src := serials[node]; src != nil {
			src.Tap = func(in protocol.Instruction) { r.logInstr(node, in) }
		}
	}
	if _, err := r.TakeCheckpoint(); err != nil {
		return nil, err
	}
	return r, nil
}

// Checkpoints returns the checkpoints taken so far, in time order.
func (r *Recorder) Checkpoints() []*Checkpoint { return r.cps }

// Inputs returns the logged input stimuli (diagnostics).
func (r *Recorder) Inputs() []InputRecord { return r.inputs }

// Instructions returns the logged wire instructions (diagnostics).
func (r *Recorder) Instructions() []InstrRecord { return r.instrs }

// Replaying reports whether the session is currently below the recorded
// frontier, re-executing from the logs.
func (r *Recorder) Replaying() bool { return r.replaying }

// Frontier returns the farthest instant the live timeline has reached.
func (r *Recorder) Frontier() uint64 { return r.frontier }

// Observe is the live pump's per-slice hook: it advances the frontier and
// takes a periodic checkpoint when the interval has elapsed. It is a
// no-op during replay (the checkpoints for that window already exist).
func (r *Recorder) Observe(now uint64) error {
	if r.replaying {
		if now >= r.frontier {
			r.endReplay()
		}
		return nil
	}
	if now > r.frontier {
		r.frontier = now
	}
	if now >= r.lastCp+r.IntervalNs {
		_, err := r.TakeCheckpoint()
		return err
	}
	return nil
}

// TakeCheckpoint captures the current state and appends it to the
// checkpoint list, evicting the oldest periodic checkpoint (the initial
// one is always kept) once MaxCheckpoints is reached.
func (r *Recorder) TakeCheckpoint() (*Checkpoint, error) {
	cp, err := Capture(r.Target, r.Session, r.Serials)
	if err != nil {
		return nil, err
	}
	max := r.MaxCheckpoints
	if max <= 0 {
		max = DefaultMaxCheckpoints
	}
	if len(r.cps) >= max && len(r.cps) > 1 {
		r.cps = append(r.cps[:1], r.cps[2:]...)
	}
	r.cps = append(r.cps, cp)
	r.lastCp = cp.Time
	return cp, nil
}

// LastBefore returns the latest checkpoint with Time <= t, or nil.
func (r *Recorder) LastBefore(t uint64) *Checkpoint {
	i := sort.Search(len(r.cps), func(i int) bool { return r.cps[i].Time > t })
	if i == 0 {
		return nil
	}
	return r.cps[i-1]
}

// logInput is every board's OnInput hook (record mode only). Writes made
// inside an environment hook replay at the same PreLatch site; writes
// made anywhere else (a user poking an input between run slices, a
// cluster's pre-release refresh) land in the manual log, replayed at pump
// boundaries.
func (r *Recorder) logInput(now uint64, actor, port string, v value.Value) {
	if r.replaying {
		return
	}
	rec := InputRecord{At: now, Actor: actor, Port: port, Val: value.Encode(v)}
	if r.inEnv {
		r.inputs = append(r.inputs, rec)
	} else {
		r.manual = append(r.manual, rec)
	}
}

// logInstr is each command channel's Tap hook (record mode only).
func (r *Recorder) logInstr(node string, in protocol.Instruction) {
	if r.replaying {
		return
	}
	r.instrs = append(r.instrs, InstrRecord{At: r.Target.Now(), Node: node, In: in})
}

// preLatch replaces board b's environment hook env: in record mode the
// live environment runs (and its writes are logged via OnInput); in
// replay mode the logged writes for this (instant, actor) release site
// are re-applied instead, so the environment's own state — which belongs
// to the live frontier, not the rewound instant — is never consulted.
func (r *Recorder) preLatch(b *target.Board, env func(now uint64, actor string), now uint64, actor string) {
	if r.replaying && now <= r.frontier {
		for r.inPtr < len(r.inputs) && r.inputs[r.inPtr].At < now {
			r.inPtr++
		}
		for r.inPtr < len(r.inputs) {
			ir := r.inputs[r.inPtr]
			if ir.At != now || ir.Actor != actor {
				break
			}
			v, err := value.Decode(ir.Val)
			if err == nil {
				_ = b.WriteInput(ir.Actor, ir.Port, v)
			}
			r.inPtr++
		}
		return
	}
	if r.replaying {
		r.endReplay()
	}
	if env != nil {
		r.inEnv = true
		env(now, actor)
		r.inEnv = false
	}
}

// endReplay hands control back to the live environment once re-execution
// has caught up with the recorded frontier.
func (r *Recorder) endReplay() {
	r.replaying = false
	r.Session.SetReplaying(false)
}

// beginReplay positions the log cursors for re-execution from now.
func (r *Recorder) beginReplay(now uint64) {
	r.replaying = true
	r.Session.SetReplaying(true)
	r.inPtr = sort.Search(len(r.inputs), func(i int) bool { return r.inputs[i].At >= now })
	r.manPtr = sort.Search(len(r.manual), func(i int) bool { return r.manual[i].At >= now })
	r.insPtr = sort.Search(len(r.instrs), func(i int) bool { return r.instrs[i].At >= now })
}

// applyManual re-injects stimuli that were written outside environment
// hooks, at the pump boundary where the original write sat between run
// slices, on the board that owns the actor.
func (r *Recorder) applyManual(now uint64) {
	for r.manPtr < len(r.manual) && r.manual[r.manPtr].At < now {
		r.manPtr++
	}
	for r.manPtr < len(r.manual) && r.manual[r.manPtr].At == now {
		ir := r.manual[r.manPtr]
		if v, err := value.Decode(ir.Val); err == nil {
			if b := r.owner(ir.Actor); b != nil {
				_ = b.WriteInput(ir.Actor, ir.Port, v)
			}
		}
		r.manPtr++
	}
}

// owner returns the board whose program carries actor, or nil.
func (r *Recorder) owner(actor string) *target.Board {
	for _, b := range r.boards {
		if b.Prog.Unit(actor) != nil {
			return b
		}
	}
	return nil
}

// sendLogged re-injects every logged instruction stamped exactly now on
// its original node's command channel. A pause/resume implied host-flag
// flip is mirrored without wire traffic.
func (r *Recorder) sendLogged(now uint64) {
	for r.insPtr < len(r.instrs) && r.instrs[r.insPtr].At < now {
		r.insPtr++
	}
	for r.insPtr < len(r.instrs) && r.instrs[r.insPtr].At == now {
		rec := r.instrs[r.insPtr]
		if src := r.Serials[rec.Node]; src != nil {
			_ = src.Resend(rec.In)
			switch rec.In.Type {
			case protocol.InPause:
				r.Session.SetPausedState(true)
			case protocol.InResume, protocol.InStep:
				r.Session.SetPausedState(false)
			}
		}
		r.insPtr++
	}
}

// pumpTo re-executes forward to exactly t: logged instructions are
// re-sent at their original instants, the target advances slice by slice,
// and events are processed only at absolute grid points (multiples of
// SliceNs) — the same receive grid the live run polls on, so replayed
// receive stamps reproduce exactly. A partial tail below the next grid
// point advances the target silently: events raised there stay on the
// wire, just as they were in-flight at that instant originally. During
// replay a breakpoint pause does not stop the pump — the logged resume
// that cleared it in the original timeline clears it here too.
func (r *Recorder) pumpTo(t uint64) error {
	for r.Target.Now() < t {
		now := r.Target.Now()
		if r.replaying {
			r.sendLogged(now)
			r.applyManual(now)
		}
		next := (now/r.SliceNs + 1) * r.SliceNs
		if next > t {
			// Partial tail: land exactly on t without polling the host side.
			r.Target.RunUntil(t)
			return nil
		}
		r.Target.RunUntil(next)
		if _, err := r.Session.ProcessEvents(r.Target.Now()); err != nil {
			return err
		}
		if err := r.Observe(r.Target.Now()); err != nil {
			return err
		}
	}
	return nil
}

// RewindTo implements engine.Rewinder: restore the latest checkpoint at
// or before t, then deterministically re-execute forward to exactly t.
// The landing instant is exact — t falls wherever it falls relative to
// instruction boundaries; the target state is the one the original
// timeline had at that very nanosecond.
func (r *Recorder) RewindTo(t uint64) (uint64, error) {
	cp := r.LastBefore(t)
	if cp == nil {
		return 0, fmt.Errorf("checkpoint: no checkpoint at or before t=%d", t)
	}
	if err := Apply(cp, r.Target, r.Session, r.Serials); err != nil {
		return 0, err
	}
	r.beginReplay(r.Target.Now())
	if err := r.pumpTo(t); err != nil {
		return r.Target.Now(), err
	}
	if r.Target.Now() >= r.frontier {
		r.endReplay()
	}
	return r.Target.Now(), nil
}

// ReplayUntil implements engine.Rewinder: re-execute forward from the
// current (typically rewound) instant until cond reports true, bounded by
// maxNs of virtual time. cond is checked at pump-slice boundaries.
func (r *Recorder) ReplayUntil(cond func(now uint64) bool, maxNs uint64) (bool, error) {
	if r.Target.Now() < r.frontier && !r.replaying {
		r.beginReplay(r.Target.Now())
	}
	limit := r.Target.Now() + maxNs
	for {
		if cond(r.Target.Now()) {
			return true, nil
		}
		if r.Target.Now() >= limit {
			return false, nil
		}
		// Advance to the next grid point (re-aligning after an off-grid
		// rewind landing), checking cond after each pumped slice.
		next := (r.Target.Now()/r.SliceNs + 1) * r.SliceNs
		if next > limit {
			next = limit
		}
		if err := r.pumpTo(next); err != nil {
			return false, err
		}
	}
}
