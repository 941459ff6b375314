// Package repro is the public facade of the GMDF reproduction — the
// Graphical Model Debugger Framework for embedded systems (Zeng, Guo,
// Angelov; DATE 2010) rebuilt as a self-contained Go library.
//
// The one-call entry point assembles the whole paper pipeline:
//
//	sys := ...                        // a COMDES design model
//	dbg, err := repro.Debug(sys, repro.DebugConfig{})
//	dbg.Session.SetBreakpoint(...)    // model-level breakpoints
//	dbg.Run(200*time.Millisecond)     // animate against the live target
//	fmt.Print(dbg.RenderASCII())      // inspect the animated model
//
// Underneath: the model is compiled to target code (internal/codegen),
// loaded on a simulated embedded board (internal/target), reflected into a
// MOF model (internal/comdes + internal/metamodel), abstracted into a
// Graphical Debugger Model (internal/core), and animated by the runtime
// engine (internal/engine) over either the active RS-232 command interface
// or the passive JTAG watch engine.
//
// A board is a one-node system. Debug builds a standalone board and
// DebugCluster a placed multi-node system on a shared virtual clock, but
// both embed the same Core: one model pipeline, one session, one run
// loop, one checkpoint recorder and one set of renderers over a
// target.Target. Code that drives either kind (the gmdf CLI, the debug
// farm, the campaign engine) holds a *Core and never asks which one it
// has, except to print what only one shape has.
package repro

import (
	"fmt"

	"repro/internal/codegen"
	"repro/internal/comdes"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/jtag"
	"repro/internal/protocol"
	"repro/internal/target"
	"repro/internal/value"
)

// Transport selects the command interface of the paper's Fig. 2.
type Transport uint8

// Command interface transports.
const (
	// Active instruments the generated code; commands travel over RS-232
	// and cost target CPU cycles.
	Active Transport = iota
	// Passive leaves the code untouched; the JTAG watch engine extracts
	// monitored variables from RAM with zero target overhead.
	Passive
)

// DebugConfig parameterises Debug.
type DebugConfig struct {
	// Transport selects active (RS-232) or passive (JTAG); Active default.
	Transport Transport
	// Mapping overrides the abstraction pairing (default: the COMDES
	// mapping covering both state machine and dataflow viewpoints).
	Mapping *core.Mapping
	// Instrument overrides the active instrumentation points (default:
	// state entries, transitions and signals).
	Instrument *codegen.Instrument
	// Board overrides the physical board parameters.
	Board target.Config
	// Compile carries extra code generation options (fault injection).
	Compile codegen.Options
	// Environment, when set, is invoked at every task release so a plant
	// model can provide sensor inputs and consume actuator outputs.
	Environment func(now uint64, b *target.Board)
	// JTAGPollNs is the passive watch polling interval (default 1 ms).
	JTAGPollNs uint64
	// Program, when non-nil, skips compilation and loads this precompiled
	// program instead. It must come from CompileFor with the same system
	// and config — the farm server compiles each model once and shares the
	// immutable program across hundreds of sessions (per-session state is
	// just board RAM + pooled machines; the IR is never written at run
	// time).
	Program *codegen.Program
}

// CompileFor compiles sys exactly as Debug would under cfg — same
// instrument defaulting, same options — so the result can be handed back
// via DebugConfig.Program and shared across many sessions.
func CompileFor(sys *comdes.System, cfg DebugConfig) (*codegen.Program, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	return codegen.Compile(sys, compileOptions(cfg))
}

// compileOptions is the one place the facade's instrument defaulting
// lives; Debug and CompileFor must agree or a shared program would differ
// from a per-session compile.
func compileOptions(cfg DebugConfig) codegen.Options {
	opts := cfg.Compile
	if cfg.Transport == Active {
		if cfg.Instrument != nil {
			opts.Instrument = *cfg.Instrument
		} else {
			opts.Instrument = codegen.Instrument{StateEnter: true, Transitions: true, Signals: true}
		}
	} else {
		opts.Instrument = codegen.Instrument{}
	}
	return opts
}

// Debugger bundles one assembled debugging setup over a standalone board
// — the one-node case of a debug target. Everything that does not depend
// on the target's shape (run loop, checkpoints, rendering) comes from the
// embedded Core.
type Debugger struct {
	Core
	Prog  *codegen.Program
	Board *target.Board

	// Probe is non-nil for passive sessions.
	Probe   *jtag.Probe
	Watcher *jtag.Watcher
}

// Debug assembles the full GMDF pipeline for a COMDES system.
func Debug(sys *comdes.System, cfg DebugConfig) (*Debugger, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	prog := cfg.Program
	if prog == nil {
		var err error
		prog, err = codegen.Compile(sys, compileOptions(cfg))
		if err != nil {
			return nil, err
		}
	}
	board, err := target.NewBoard("main", prog, withBindings(cfg.Board, sys), nil)
	if err != nil {
		return nil, err
	}
	if cfg.Environment != nil {
		env := cfg.Environment
		board.PreLatch = func(now uint64, actor string) { env(now, board) }
	}

	d := &Debugger{Prog: prog, Board: board}
	if err := d.init(sys, cfg.Mapping, board); err != nil {
		return nil, err
	}
	switch cfg.Transport {
	case Active:
		d.addSerial(board.Name)
	case Passive:
		probe := jtag.NewProbe(board.TAP)
		probe.Reset()
		watcher := jtag.NewWatcher(probe)
		if err := engine.AutoWatches(watcher, prog); err != nil {
			return nil, err
		}
		d.Session.AddSource(&engine.WatcherSource{Watcher: watcher})
		d.Session.Translate = engine.WatchTranslator(sys)
		d.Probe = probe
		d.Watcher = watcher
	default:
		return nil, fmt.Errorf("repro: unknown transport %d", cfg.Transport)
	}
	return d, nil
}

func withBindings(cfg target.Config, sys *comdes.System) target.Config {
	cfg.Bindings = append(cfg.Bindings, sys.Bindings...)
	return cfg
}

// BreakOnState arms a model-level breakpoint on a state entry. Over the
// active interface the condition is compiled onto the target-resident
// agent — the board halts at the state-storing instruction, mid-release,
// before the deadline latch publishes. On passive sessions it falls back
// to host-side filtering of EvStateEnter events (halt one frame later).
func (d *Debugger) BreakOnState(id, machine, state string) error {
	bp := engine.Breakpoint{ID: id, Event: protocol.EvStateEnter, Source: machine, Arg1: state}
	if cond, err := engine.StateCond(d.Sys, machine, state); err == nil {
		bp.TargetCond = cond
	}
	return d.Session.SetBreakpoint(bp)
}

// BreakOnDeadlineMiss arms the standard deadline-overrun breakpoint for an
// actor. Over the active interface the condition runs on the target's
// kernel scheduling counter (`actor.__misses`) and halts the board at the
// latch instant of the missing release; on passive sessions the
// EvDeadlineMiss events synthesised from the JTAG-watched counter are
// filtered host-side.
func (d *Debugger) BreakOnDeadlineMiss(id, actor string) error {
	if _, err := engine.MissCond(d.Sys, actor); err != nil {
		return err
	}
	return d.Session.SetBreakpoint(engine.MissBreakpoint(id, actor))
}

// WriteInput injects a value on an actor input (manual stimulus).
func (d *Debugger) WriteInput(actor, port string, v value.Value) error {
	return d.Board.WriteInput(actor, port, v)
}
