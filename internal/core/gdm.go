package core

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/graphics"
	"repro/internal/protocol"
)

// Element is one graphical debugger model element: the visual counterpart
// of exactly one input model element, displayed using the pattern the
// abstraction guide paired with its meta-class.
type Element struct {
	ID          string `json:"id"`          // == source model element id
	SourceClass string `json:"sourceClass"` // input meta-class
	Pattern     string `json:"pattern"`
	Label       string `json:"label"`
	Group       string `json:"group,omitempty"` // container element id (exclusivity scope)
	From        string `json:"from,omitempty"`  // connector endpoints (element ids)
	To          string `json:"to,omitempty"`
	Initial     bool   `json:"initial,omitempty"` // highlighted before any event
}

// ReactionKind enumerates what a command does to the model view — the
// "specific actions to be performed on the model in response to events
// coming from the system under test (e.g. highlighting a GDM element)".
type ReactionKind uint8

// Reaction kinds.
const (
	ReactNone               ReactionKind = iota
	ReactHighlight                       // switch the element's highlight on
	ReactHighlightExclusive              // highlight the element, clearing its Group siblings
	ReactBadge                           // attach the event's value as a badge
	ReactPulse                           // highlight; cleared when the next pulse in the Group fires
)

// String names the reaction.
func (r ReactionKind) String() string {
	switch r {
	case ReactHighlight:
		return "Highlight"
	case ReactHighlightExclusive:
		return "HighlightExclusive"
	case ReactBadge:
		return "Badge"
	case ReactPulse:
		return "Pulse"
	default:
		return "None"
	}
}

// Binding associates a command (event) with a reaction — one row of the
// command-setting interface (Fig. 6 step 4). The element a command acts on
// is found either by expanding KeyTemplate (placeholders: $source, $arg1,
// $arg2, $sourceHead, $sourceTail) or, for ArrowMatch bindings, by looking
// up the connector whose endpoints match the expanded FromKey/ToKey.
type Binding struct {
	Name     string             `json:"name"`
	Event    protocol.EventType `json:"event"`
	SourceEq string             `json:"sourceEq,omitempty"` // filter on Event.Source ("" = any)

	KeyTemplate string `json:"keyTemplate,omitempty"`
	ArrowMatch  bool   `json:"arrowMatch,omitempty"`
	FromKey     string `json:"fromKey,omitempty"`
	ToKey       string `json:"toKey,omitempty"`

	Reaction ReactionKind `json:"reaction"`
}

// State is the GDM engine state per the Fig. 3 meta-model: the debugger
// model is "normally in a waiting state, listening for commands and
// performing the corresponding reactions".
type State uint8

// GDM engine states.
const (
	Waiting State = iota
	Reacting
	Halted
)

// String names the engine state.
func (s State) String() string {
	switch s {
	case Waiting:
		return "Waiting"
	case Reacting:
		return "Reacting"
	case Halted:
		return "Halted"
	default:
		return fmt.Sprintf("State(%d)", s)
	}
}

// GDM is the Graphical Debugger Model: elements, command bindings, the
// rendered scene and the event-driven state machine animating it.
type GDM struct {
	Name     string
	elements []*Element
	index    map[string]*Element
	bindings []Binding

	scene *graphics.Scene
	state State

	// lastPulse tracks the active pulse element per group so the next
	// pulse clears it.
	lastPulse map[string]string

	// keyBuf is reused by resolveElement to expand key templates without
	// building a string per event.
	keyBuf []byte

	// Stats.
	Commands  uint64 // events handled
	Reactions uint64 // reactions applied
	Unbound   uint64 // events with no matching binding
}

// NewGDM creates an empty debugger model.
func NewGDM(name string) *GDM {
	return &GDM{Name: name, index: map[string]*Element{}, lastPulse: map[string]string{}}
}

// AddElement inserts an element; duplicate ids are an error.
func (g *GDM) AddElement(e *Element) error {
	if e.ID == "" {
		return fmt.Errorf("core: element with empty id")
	}
	if _, dup := g.index[e.ID]; dup {
		return fmt.Errorf("core: duplicate element %q", e.ID)
	}
	g.elements = append(g.elements, e)
	g.index[e.ID] = e
	return nil
}

// Element returns the element with the given id, or nil.
func (g *GDM) Element(id string) *Element { return g.index[id] }

// Elements returns the elements in creation order.
func (g *GDM) Elements() []*Element { return g.elements }

// Bind appends a command binding.
func (g *GDM) Bind(b Binding) error {
	if b.Event == protocol.EvInvalid {
		return fmt.Errorf("core: binding %q with no event type", b.Name)
	}
	if b.Reaction == ReactNone {
		return fmt.Errorf("core: binding %q with no reaction", b.Name)
	}
	if !b.ArrowMatch && b.KeyTemplate == "" {
		return fmt.Errorf("core: binding %q needs a key template or arrow match", b.Name)
	}
	g.bindings = append(g.bindings, b)
	return nil
}

// Bindings returns the command bindings.
func (g *GDM) Bindings() []Binding { return append([]Binding(nil), g.bindings...) }

// State returns the engine state.
func (g *GDM) State() State { return g.state }

// SetHalted marks the GDM paused (breakpoint hit); events are still
// accepted (the replay path), but the state reads Halted.
func (g *GDM) SetHalted(h bool) {
	if h {
		g.state = Halted
	} else {
		g.state = Waiting
	}
}

// Scene returns the rendered scene (BuildScene must have run).
func (g *GDM) Scene() *graphics.Scene { return g.scene }

// appendExpand appends tmpl to out with event fields substituted.
func appendExpand(out []byte, tmpl string, ev protocol.Event) []byte {
	head, tail := ev.Source, ev.Source
	if i := lastDot(ev.Source); i >= 0 {
		head, tail = ev.Source[:i], ev.Source[i+1:]
	}
	for i := 0; i < len(tmpl); {
		if tmpl[i] != '$' {
			out = append(out, tmpl[i])
			i++
			continue
		}
		rest := tmpl[i:]
		switch {
		case hasPrefix(rest, "$sourceHead"):
			out = append(out, head...)
			i += len("$sourceHead")
		case hasPrefix(rest, "$sourceTail"):
			out = append(out, tail...)
			i += len("$sourceTail")
		case hasPrefix(rest, "$source"):
			out = append(out, ev.Source...)
			i += len("$source")
		case hasPrefix(rest, "$arg1"):
			out = append(out, ev.Arg1...)
			i += len("$arg1")
		case hasPrefix(rest, "$arg2"):
			out = append(out, ev.Arg2...)
			i += len("$arg2")
		default:
			out = append(out, tmpl[i])
			i++
		}
	}
	return out
}

func hasPrefix(s, p string) bool { return len(s) >= len(p) && s[:len(p)] == p }

func lastDot(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '.' {
			return i
		}
	}
	return -1
}

// Reaction describes one applied reaction (for traces and tests).
type Reaction struct {
	Binding string
	Element string
	Kind    ReactionKind
}

// HandleEvent runs the Fig. 3 state machine for one incoming command:
// Waiting -> Reacting -> Waiting, applying every matching binding to the
// scene. Unmatched events are counted but not an error (the GDM ignores
// commands it was not configured to visualise).
func (g *GDM) HandleEvent(ev protocol.Event) ([]Reaction, error) {
	if g.scene == nil {
		return nil, fmt.Errorf("core: GDM %s has no scene (call BuildScene)", g.Name)
	}
	prev := g.state
	g.state = Reacting
	defer func() { g.state = prev }()
	g.Commands++

	var applied []Reaction
	for _, b := range g.bindings {
		if b.Event != ev.Type {
			continue
		}
		if b.SourceEq != "" && b.SourceEq != ev.Source {
			continue
		}
		el := g.resolveElement(b, ev)
		if el == nil {
			continue
		}
		if err := g.apply(b, el, ev); err != nil {
			return applied, err
		}
		applied = append(applied, Reaction{Binding: b.Name, Element: el.ID, Kind: b.Reaction})
		g.Reactions++
	}
	if len(applied) == 0 {
		g.Unbound++
	}
	return applied, nil
}

func (g *GDM) resolveElement(b Binding, ev protocol.Event) *Element {
	if b.ArrowMatch {
		g.keyBuf = appendExpand(g.keyBuf[:0], b.FromKey, ev)
		n := len(g.keyBuf)
		g.keyBuf = appendExpand(g.keyBuf, b.ToKey, ev)
		from, to := g.keyBuf[:n], g.keyBuf[n:]
		for _, el := range g.elements {
			if IsConnector(el.Pattern) && el.From == string(from) && el.To == string(to) {
				return el
			}
		}
		return nil
	}
	g.keyBuf = appendExpand(g.keyBuf[:0], b.KeyTemplate, ev)
	return g.index[string(g.keyBuf)]
}

func (g *GDM) apply(b Binding, el *Element, ev protocol.Event) error {
	switch b.Reaction {
	case ReactHighlight:
		return g.scene.SetHighlight(el.ID, true)
	case ReactHighlightExclusive:
		for _, sib := range g.elements {
			if sib.Group == el.Group && sib.ID != el.ID {
				if err := g.scene.SetHighlight(sib.ID, false); err != nil {
					return err
				}
			}
		}
		return g.scene.SetHighlight(el.ID, true)
	case ReactBadge:
		badge := ev.Arg2
		if badge == "" {
			badge = strconv.FormatFloat(ev.Value, 'g', -1, 64) // as %g prints it
		}
		return g.scene.SetBadge(el.ID, badge)
	case ReactPulse:
		if prev := g.lastPulse[el.Group]; prev != "" && prev != el.ID {
			if err := g.scene.SetHighlight(prev, false); err != nil {
				return err
			}
		}
		g.lastPulse[el.Group] = el.ID
		return g.scene.SetHighlight(el.ID, true)
	}
	return fmt.Errorf("core: binding %s: unknown reaction", b.Name)
}

// ResetAnimation rewinds the GDM's dynamic state to a freshly built
// scene: highlights and badges cleared, initial elements re-highlighted,
// pulse tracking and the reaction counters zeroed. The checkpoint
// subsystem calls it before re-projecting a restored trace so the
// animated view matches the rewound instant instead of the abandoned
// future.
func (g *GDM) ResetAnimation() {
	if g.scene != nil {
		g.scene.ClearDynamic()
		for _, el := range g.elements {
			if el.Initial && !IsConnector(el.Pattern) {
				_ = g.scene.SetHighlight(el.ID, true)
			}
		}
	}
	g.lastPulse = map[string]string{}
	g.state = Waiting
	g.Commands, g.Reactions, g.Unbound = 0, 0, 0
}

// HighlightedElements returns the ids of highlighted scene shapes.
func (g *GDM) HighlightedElements() []string {
	if g.scene == nil {
		return nil
	}
	return g.scene.Highlighted()
}

// ---- persistence (the "initial GDM file" of Fig. 6 step 4) ----

type gdmFile struct {
	Name     string     `json:"name"`
	Elements []*Element `json:"elements"`
	Bindings []Binding  `json:"bindings"`
}

// MarshalJSON serializes the GDM (elements + bindings; the scene is
// rebuilt on load).
func (g *GDM) MarshalJSON() ([]byte, error) {
	return json.MarshalIndent(gdmFile{Name: g.Name, Elements: g.elements, Bindings: g.bindings}, "", "  ")
}

// LoadGDM reconstructs a GDM from its JSON form and rebuilds the scene.
func LoadGDM(data []byte) (*GDM, error) {
	var f gdmFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("core: gdm decode: %w", err)
	}
	g := NewGDM(f.Name)
	for _, e := range f.Elements {
		if err := g.AddElement(e); err != nil {
			return nil, err
		}
	}
	g.bindings = f.Bindings
	if err := g.BuildScene(); err != nil {
		return nil, err
	}
	return g, nil
}

// ---- scene construction ----

// BuildScene lays out the elements and produces the drawable scene:
// boxes are arranged by a layered layout over the connector graph
// (isolated boxes fall back to a grid strip below), connectors attach to
// box borders, and initial elements start highlighted.
func (g *GDM) BuildScene() error {
	sc := graphics.NewScene(400, 300)
	sc.Title = g.Name

	var boxes []graphics.LayoutNode
	var edges []graphics.LayoutEdge
	connected := map[string]bool{}
	for _, el := range g.elements {
		if IsConnector(el.Pattern) {
			edges = append(edges, graphics.LayoutEdge{From: el.From, To: el.To})
			connected[el.From] = true
			connected[el.To] = true
		}
	}
	var isolated []graphics.LayoutNode
	for _, el := range g.elements {
		if IsConnector(el.Pattern) {
			continue
		}
		w, h := boxSize(el.Pattern)
		n := graphics.LayoutNode{ID: el.ID, W: w, H: h}
		if connected[el.ID] {
			boxes = append(boxes, n)
		} else {
			isolated = append(isolated, n)
		}
	}
	pos := graphics.LayerLayout(boxes, edges, 60, 30)
	// Isolated elements in a grid strip below the graph.
	maxY := 0.0
	for _, p := range pos {
		if p.Y > maxY {
			maxY = p.Y
		}
	}
	gridPos := graphics.GridLayout(isolated, 4, 150, 70)
	for id, p := range gridPos {
		pos[id] = graphics.Point{X: p.X + 40, Y: p.Y + maxY + 90}
	}

	// Boxes first.
	for _, el := range g.elements {
		if IsConnector(el.Pattern) {
			continue
		}
		kind, err := PatternShape(el.Pattern)
		if err != nil {
			return err
		}
		w, h := boxSize(el.Pattern)
		p := pos[el.ID]
		sh := &graphics.Shape{ID: el.ID, Kind: kind, X: p.X, Y: p.Y, W: w, H: h, Label: el.Label}
		if el.Initial {
			sh.Highlight = true
		}
		if err := sc.Add(sh); err != nil {
			return err
		}
	}
	// Connectors after, attached to box borders.
	for _, el := range g.elements {
		if !IsConnector(el.Pattern) {
			continue
		}
		kind, err := PatternShape(el.Pattern)
		if err != nil {
			return err
		}
		from := sc.Get(el.From)
		to := sc.Get(el.To)
		if from == nil || to == nil {
			return fmt.Errorf("core: connector %s has dangling endpoints %q/%q", el.ID, el.From, el.To)
		}
		x1, y1, x2, y2 := graphics.ConnectorEndpoints(from, to)
		sh := &graphics.Shape{ID: el.ID, Kind: kind, X: x1, Y: y1, X2: x2, Y2: y2, Label: el.Label, Z: -1}
		if err := sc.Add(sh); err != nil {
			return err
		}
	}
	sc.FitContent(30)
	g.scene = sc
	return nil
}

func boxSize(pattern string) (float64, float64) {
	switch pattern {
	case "Circle":
		return 96, 48
	case "Triangle":
		return 64, 44
	case "Text":
		return 120, 16
	default: // Rectangle
		return 112, 44
	}
}

// Conformance verifies the GDM against its own meta-model (experiment E3):
// every element uses a known pattern, connectors resolve, groups reference
// existing elements, ids are unique (by construction), and bindings are
// well-formed.
func (g *GDM) Conformance() error {
	for _, el := range g.elements {
		ok := false
		for _, p := range Patterns {
			if el.Pattern == p {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("core: element %s has unknown pattern %q", el.ID, el.Pattern)
		}
		if IsConnector(el.Pattern) {
			if g.index[el.From] == nil || g.index[el.To] == nil {
				return fmt.Errorf("core: connector %s endpoints unresolved", el.ID)
			}
		}
		if el.Group != "" && g.index[el.Group] == nil {
			// Groups may reference a container that was not itself mapped;
			// that is allowed, but the group id must then not collide with
			// a pattern name (cheap sanity check).
			for _, p := range Patterns {
				if el.Group == p {
					return fmt.Errorf("core: element %s has suspicious group %q", el.ID, el.Group)
				}
			}
		}
	}
	for _, b := range g.bindings {
		if b.Event == protocol.EvInvalid || b.Reaction == ReactNone {
			return fmt.Errorf("core: malformed binding %q", b.Name)
		}
	}
	return nil
}

// ElementsByPattern returns a sorted count per pattern (reporting).
func (g *GDM) ElementsByPattern() map[string]int {
	out := map[string]int{}
	for _, el := range g.elements {
		out[el.Pattern]++
	}
	return out
}

// SortedIDs returns all element ids sorted (deterministic reporting).
func (g *GDM) SortedIDs() []string {
	ids := make([]string, 0, len(g.elements))
	for _, el := range g.elements {
		ids = append(ids, el.ID)
	}
	sort.Strings(ids)
	return ids
}
