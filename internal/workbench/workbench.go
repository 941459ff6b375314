// Package workbench reproduces the tool shell of the GMDF prototype: the
// Eclipse-style plugin registry ("the framework intends to contribute a
// tool to the Eclipse society") and the five-step execution flow of the
// paper's Fig. 6:
//
//  1. start plug-in, check input prerequisites
//  2. select input meta-model and model files
//  3. abstraction guide: pair meta-model elements with GDM patterns
//  4. command setting: bind commands to reaction types; initial GDM file
//  5. GDM created, communication channel established, debugging
//
// The workbench is headless: every interaction the Eclipse wizard offers
// is a method call, and the Fig. 4 abstraction-guide panel renders as
// ASCII for terminals and tests.
package workbench

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metamodel"
	"repro/internal/protocol"
)

// ---- plugin registry ----

// Extension is one contribution to an extension point.
type Extension struct {
	Point string // extension point id, e.g. "gmdf.mapping"
	Name  string // contribution name, e.g. "comdes-default"
	Impl  interface{}
}

// Registry is a minimal Eclipse-like extension registry.
type Registry struct {
	exts []Extension
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds a contribution; duplicate (point, name) pairs are an
// error.
func (r *Registry) Register(e Extension) error {
	if e.Point == "" || e.Name == "" {
		return fmt.Errorf("workbench: extension needs point and name")
	}
	for _, ex := range r.exts {
		if ex.Point == e.Point && ex.Name == e.Name {
			return fmt.Errorf("workbench: duplicate extension %s/%s", e.Point, e.Name)
		}
	}
	r.exts = append(r.exts, e)
	return nil
}

// Lookup finds a contribution by point and name.
func (r *Registry) Lookup(point, name string) (Extension, bool) {
	for _, ex := range r.exts {
		if ex.Point == point && ex.Name == name {
			return ex, true
		}
	}
	return Extension{}, false
}

// Extensions lists the contributions to one point, sorted by name.
func (r *Registry) Extensions(point string) []Extension {
	var out []Extension
	for _, ex := range r.exts {
		if ex.Point == point {
			out = append(out, ex)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ---- Fig. 6 wizard ----

// Step is the wizard position.
type Step uint8

// The five steps of Fig. 6.
const (
	StepInputSelection Step = iota + 1
	StepAbstraction
	StepCommandSetup
	StepGDMReady
	StepDebugging
)

// String names the step as in the figure.
func (s Step) String() string {
	switch s {
	case StepInputSelection:
		return "1:input-selection"
	case StepAbstraction:
		return "2:abstraction-guide"
	case StepCommandSetup:
		return "3:command-setting"
	case StepGDMReady:
		return "4:gdm-created"
	case StepDebugging:
		return "5:debugging"
	default:
		return fmt.Sprintf("Step(%d)", s)
	}
}

// StepRecord logs a step completion for the E6 latency table.
type StepRecord struct {
	Step Step
	At   uint64
}

// Wizard drives one debugging setup end to end.
type Wizard struct {
	step    Step
	meta    *metamodel.Metamodel
	model   *metamodel.Model
	mapping *core.Mapping
	gdm     *core.GDM
	session *engine.Session

	// Clock stamps step completions (virtual or wall time, caller's
	// choice); nil uses a step counter.
	Clock func() uint64
	Log   []StepRecord
	ticks uint64
}

// NewWizard starts at step 1 (prerequisites check happens in
// SelectInputs).
func NewWizard() *Wizard {
	return &Wizard{step: StepInputSelection, mapping: core.NewMapping()}
}

// Step returns the current wizard position.
func (w *Wizard) Step() Step { return w.step }

func (w *Wizard) stamp() {
	var at uint64
	if w.Clock != nil {
		at = w.Clock()
	} else {
		w.ticks++
		at = w.ticks
	}
	w.Log = append(w.Log, StepRecord{Step: w.step, At: at})
}

func (w *Wizard) requireStep(s Step) error {
	if w.step != s {
		return fmt.Errorf("workbench: action belongs to step %v, wizard is at %v", s, w.step)
	}
	return nil
}

// SelectInputs is Fig. 6 step 2: supply the input meta-model and model.
// The model is validated against the meta-model (the prerequisite check).
func (w *Wizard) SelectInputs(meta *metamodel.Metamodel, model *metamodel.Model) error {
	if err := w.requireStep(StepInputSelection); err != nil {
		return err
	}
	if meta == nil || model == nil {
		return fmt.Errorf("workbench: meta-model and model are required inputs")
	}
	if model.Meta != meta {
		return fmt.Errorf("workbench: model does not instantiate the supplied meta-model")
	}
	if err := meta.Validate(); err != nil {
		return err
	}
	if err := model.Validate(); err != nil {
		return err
	}
	w.meta, w.model = meta, model
	w.stamp()
	w.step = StepAbstraction
	return nil
}

// Pair records one pairing in the abstraction guide (Fig. 4).
func (w *Wizard) Pair(rule core.Rule) error {
	if err := w.requireStep(StepAbstraction); err != nil {
		return err
	}
	if w.meta.Class(rule.MetaClass) == nil {
		return fmt.Errorf("workbench: meta-model has no class %q", rule.MetaClass)
	}
	return w.mapping.Pair(rule)
}

// DeletePairing removes a pairing (the guide's delete action).
func (w *Wizard) DeletePairing(metaClass string) error {
	if err := w.requireStep(StepAbstraction); err != nil {
		return err
	}
	return w.mapping.Delete(metaClass)
}

// UseMapping replaces the whole pairing list (loading a stored mapping, or
// a plugin-contributed default).
func (w *Wizard) UseMapping(m *core.Mapping) error {
	if err := w.requireStep(StepAbstraction); err != nil {
		return err
	}
	if m == nil || m.Len() == 0 {
		return fmt.Errorf("workbench: empty mapping")
	}
	w.mapping = m
	return nil
}

// GuidePanel renders the Fig. 4 panel for the current inputs.
func (w *Wizard) GuidePanel() string {
	if w.meta == nil {
		return "(no inputs selected)\n"
	}
	return core.GuideView(w.meta, w.mapping)
}

// FinishAbstraction is the "ABSTRACTION FINISHED" button: it runs the
// abstraction and moves to command setting.
func (w *Wizard) FinishAbstraction() error {
	if err := w.requireStep(StepAbstraction); err != nil {
		return err
	}
	g, err := core.Abstract(w.model, w.mapping)
	if err != nil {
		return err
	}
	w.gdm = g
	w.stamp()
	w.step = StepCommandSetup
	return nil
}

// BindCommand adds one command→reaction row (Fig. 6 step 4).
func (w *Wizard) BindCommand(b core.Binding) error {
	if err := w.requireStep(StepCommandSetup); err != nil {
		return err
	}
	return w.gdm.Bind(b)
}

// FinishCommandSetup freezes the GDM (the "initial GDM file").
func (w *Wizard) FinishCommandSetup() error {
	if err := w.requireStep(StepCommandSetup); err != nil {
		return err
	}
	if len(w.gdm.Bindings()) == 0 {
		return fmt.Errorf("workbench: bind at least one command before finishing")
	}
	w.stamp()
	w.step = StepGDMReady
	return nil
}

// GDM returns the created debugger model (available from step 4).
func (w *Wizard) GDM() *core.GDM { return w.gdm }

// Attach establishes the communication channel and enters debugging
// (Fig. 6 step 5): the returned session is live.
func (w *Wizard) Attach(target engine.TargetControl, sources ...engine.EventSource) (*engine.Session, error) {
	if err := w.requireStep(StepGDMReady); err != nil {
		return nil, err
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("workbench: a communication channel (event source) is required")
	}
	s := engine.NewSession(w.gdm, target)
	for _, src := range sources {
		s.AddSource(src)
	}
	w.session = s
	w.stamp()
	w.step = StepDebugging
	return s, nil
}

// Session returns the live session (step 5).
func (w *Wizard) Session() *engine.Session { return w.session }

// SetBreakpoint installs a model-level breakpoint on the live session
// (step 5). When the communication channel established in Attach is the
// active serial interface and the breakpoint carries a TargetCond, it is
// pushed onto the target-resident agent — the board then halts at the
// triggering instruction instead of after the event frame crosses the
// line; otherwise the event pattern is filtered host-side.
func (w *Wizard) SetBreakpoint(bp engine.Breakpoint) error {
	if err := w.requireStep(StepDebugging); err != nil {
		return err
	}
	return w.session.SetBreakpoint(bp)
}

// ClearBreakpoint removes a session breakpoint, disarming it on the
// target when it had been pushed there.
func (w *Wizard) ClearBreakpoint(id string) error {
	if err := w.requireStep(StepDebugging); err != nil {
		return err
	}
	return w.session.ClearBreakpoint(id)
}

// BreakOnDeadlineMiss arms the standard deadline-overrun breakpoint for
// an actor (step 5): over the active serial channel the condition runs on
// the target's scheduling counters and halts the board at the latch
// instant of the missing release; over passive channels the EvDeadlineMiss
// event pattern is filtered host-side.
func (w *Wizard) BreakOnDeadlineMiss(id, actor string) error {
	if err := w.requireStep(StepDebugging); err != nil {
		return err
	}
	return w.session.SetBreakpoint(engine.MissBreakpoint(id, actor))
}

// BreakOnPreemption arms a breakpoint on an actor being preempted (step
// 5): on-target over the __preempts scheduling counter when the active
// channel is attached, host-side on the EvPreempt pattern otherwise.
func (w *Wizard) BreakOnPreemption(id, actor string) error {
	if err := w.requireStep(StepDebugging); err != nil {
		return err
	}
	return w.session.SetBreakpoint(engine.Breakpoint{
		ID:         id,
		Event:      protocol.EvPreempt,
		Source:     actor,
		TargetCond: actor + ".__preempts > 0",
	})
}
