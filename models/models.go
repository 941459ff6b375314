// Package models provides ready-made COMDES design models: the reference
// applications used by the examples, the experiment harness and the
// benchmarks. Each constructor returns a fresh, validated system.
package models

import (
	"fmt"

	"repro/internal/comdes"
	"repro/internal/value"
)

// TrafficLight is the quickstart model: a single actor whose state machine
// cycles Red -> Green -> Yellow on a sawtooth clock input `t` (seconds)
// supplied by the environment (wrap at 12 s).
func TrafficLight() (*comdes.System, error) {
	sm, err := comdes.NewStateMachineFB(comdes.SMConfig{
		Name:    "light",
		Inputs:  []comdes.Port{{Name: "t", Kind: value.Float}},
		Outputs: []comdes.Port{{Name: "lamp", Kind: value.Int}}, // 0=red 1=green 2=yellow
		Initial: "Red",
		States: []comdes.SMStateDef{
			{Name: "Red", Entry: map[string]string{"lamp": "0"}},
			{Name: "Green", Entry: map[string]string{"lamp": "1"}},
			{Name: "Yellow", Entry: map[string]string{"lamp": "2"}},
		},
		Transitions: []comdes.SMTransitionDef{
			{Name: "go", From: "Red", To: "Green", Guard: "t > 3 && t <= 8"},
			{Name: "caution", From: "Green", To: "Yellow", Guard: "t > 8"},
			{Name: "stop", From: "Yellow", To: "Red", Guard: "t <= 3"},
		},
	})
	if err != nil {
		return nil, err
	}
	net := comdes.NewNetwork("lightnet",
		[]comdes.Port{{Name: "t", Kind: value.Float}},
		[]comdes.Port{{Name: "lamp", Kind: value.Int}})
	if err := net.Add(sm); err != nil {
		return nil, err
	}
	if err := net.Connect("", "t", "light", "t"); err != nil {
		return nil, err
	}
	if err := net.Connect("light", "lamp", "", "lamp"); err != nil {
		return nil, err
	}
	actor, err := comdes.NewActor("signal", net, comdes.TaskSpec{PeriodNs: 100_000_000, DeadlineNs: 50_000_000})
	if err != nil {
		return nil, err
	}
	sys := comdes.NewSystem("traffic")
	if err := sys.AddActor(actor); err != nil {
		return nil, err
	}
	return sys, sys.Validate()
}

// HeatingOptions tweak the flagship model.
type HeatingOptions struct {
	// WrongGuard seeds the E9 *design error*: the modeller typed the
	// cut-out guard as `temp > 40` instead of `temp > 21`, so the heater
	// overshoots.
	WrongGuard bool
}

// Heating is the flagship control application (the domain the paper's
// prototype targets): a thermostat actor combining all four COMDES block
// kinds — a state machine (thermostat), a modal block (eco/comfort power
// scaling), a composite block (output conditioning pipeline) and basic
// blocks — plus a monitoring actor bound over a labelled signal.
func Heating(opt HeatingOptions) (*comdes.System, error) {
	cutOut := "temp > 21"
	if opt.WrongGuard {
		cutOut = "temp > 40"
	}
	sm, err := comdes.NewStateMachineFB(comdes.SMConfig{
		Name:    "thermostat",
		Inputs:  []comdes.Port{{Name: "temp", Kind: value.Float}},
		Outputs: []comdes.Port{{Name: "heat", Kind: value.Bool}, {Name: "demand", Kind: value.Float}},
		Initial: "Idle",
		States: []comdes.SMStateDef{
			{Name: "Idle", Entry: map[string]string{"heat": "false", "demand": "0"}},
			{Name: "Heating", Entry: map[string]string{"heat": "true", "demand": "100"}},
		},
		Transitions: []comdes.SMTransitionDef{
			{Name: "cold", From: "Idle", To: "Heating", Guard: "temp < 19"},
			{Name: "warm", From: "Heating", To: "Idle", Guard: cutOut},
		},
	})
	if err != nil {
		return nil, err
	}

	eco := comdes.MustComponent("gain", "eco", map[string]value.Value{"k": value.F(0.5)})
	comfort := comdes.MustComponent("gain", "comfort", map[string]value.Value{"k": value.F(1)})
	off := comdes.MustComponent("const", "off", map[string]value.Value{"value": value.F(0)})
	boost, err := comdes.NewModalFB("boost", "mode",
		[]comdes.Port{{Name: "in", Kind: value.Float}, {Name: "mode", Kind: value.Int}},
		[]comdes.Port{{Name: "out", Kind: value.Float}},
		[]comdes.ModalMode{{Selector: 1, Block: eco}, {Selector: 2, Block: comfort}}, off)
	if err != nil {
		return nil, err
	}

	shapeNet := comdes.NewNetwork("shape",
		[]comdes.Port{{Name: "in", Kind: value.Float}},
		[]comdes.Port{{Name: "out", Kind: value.Float}})
	shapeNet.MustAdd(comdes.MustComponent("gain", "trim", map[string]value.Value{"k": value.F(1)}))
	shapeNet.MustAdd(comdes.MustComponent("limit", "sat", map[string]value.Value{"lo": value.F(0), "hi": value.F(100)}))
	shapeNet.MustConnect("", "in", "trim", "in").
		MustConnect("trim", "out", "sat", "in").
		MustConnect("sat", "out", "", "out")
	shape, err := comdes.NewCompositeFB(shapeNet)
	if err != nil {
		return nil, err
	}

	net := comdes.NewNetwork("heaternet",
		[]comdes.Port{{Name: "temp", Kind: value.Float}, {Name: "mode", Kind: value.Int}},
		[]comdes.Port{{Name: "heat", Kind: value.Bool}, {Name: "power", Kind: value.Float}})
	net.MustAdd(sm).MustAdd(boost).MustAdd(shape)
	net.MustConnect("", "temp", "thermostat", "temp").
		MustConnect("thermostat", "demand", "boost", "in").
		MustConnect("", "mode", "boost", "mode").
		MustConnect("boost", "out", "shape", "in").
		MustConnect("shape", "out", "", "power").
		MustConnect("thermostat", "heat", "", "heat")
	heater, err := comdes.NewActor("heater", net, comdes.TaskSpec{PeriodNs: 10_000_000, DeadlineNs: 5_000_000})
	if err != nil {
		return nil, err
	}

	monNet := comdes.NewNetwork("monnet",
		[]comdes.Port{{Name: "power", Kind: value.Float}},
		[]comdes.Port{{Name: "alarm", Kind: value.Bool}})
	monNet.MustAdd(comdes.MustComponent("compare", "over", map[string]value.Value{"threshold": value.F(80)}))
	monNet.MustConnect("", "power", "over", "in").MustConnect("over", "out", "", "alarm")
	monitor, err := comdes.NewActor("monitor", monNet, comdes.TaskSpec{PeriodNs: 10_000_000, OffsetNs: 5_000_000, DeadlineNs: 5_000_000})
	if err != nil {
		return nil, err
	}

	sys := comdes.NewSystem("heating")
	if err := sys.AddActor(heater); err != nil {
		return nil, err
	}
	if err := sys.AddActor(monitor); err != nil {
		return nil, err
	}
	if err := sys.Bind("power_sig", "heater", "power", "monitor", "power"); err != nil {
		return nil, err
	}
	return sys, sys.Validate()
}

// PriorityLoad is the preemptive-scheduling demonstrator: a high-priority
// "hog" actor whose body eats most of the CPU every millisecond, and a
// low-priority "lowly" actor whose modest body cannot finish inside its
// deadline once the hog keeps preempting it. On a 1 MHz board
// (target.Config{CPUHz: 1_000_000}) under dtm.FixedPriority the lowly task
// misses every deadline (it needs ~600 µs of CPU but gets ~120 µs per
// millisecond gap); run cooperatively the same model meets every deadline,
// because each release executes at its release instant with zero modeled
// interference — the difference the DTM timing experiments need to observe.
func PriorityLoad() (*comdes.System, error) {
	mkChain := func(actor string, blocks int, task comdes.TaskSpec) (*comdes.Actor, error) {
		net := comdes.NewNetwork(actor+"net",
			[]comdes.Port{{Name: "x", Kind: value.Float}},
			[]comdes.Port{{Name: "y", Kind: value.Float}})
		prev, prevPort := "", "x"
		for i := 0; i < blocks; i++ {
			g := comdes.MustComponent("gain", fmt.Sprintf("g%d", i), map[string]value.Value{"k": value.F(1)})
			net.MustAdd(g)
			net.MustConnect(prev, prevPort, g.Name(), "in")
			prev, prevPort = g.Name(), "out"
		}
		net.MustConnect(prev, prevPort, "", "y")
		return comdes.NewActor(actor, net, task)
	}
	// Each gain block compiles to LOAD+PUSH+MUL+STORE = 12 VM cycles, so
	// the hog body costs ~804 cycles (~804 µs at 1 MHz, ~80% utilisation
	// at its 1 ms period) and the lowly body ~600 cycles.
	hog, err := mkChain("hog", 67, comdes.TaskSpec{
		PeriodNs: 1_000_000, DeadlineNs: 1_000_000, Priority: 10,
	})
	if err != nil {
		return nil, err
	}
	lowly, err := mkChain("lowly", 50, comdes.TaskSpec{
		PeriodNs: 8_000_000, DeadlineNs: 2_000_000, Priority: 1,
	})
	if err != nil {
		return nil, err
	}
	sys := comdes.NewSystem("priorityload")
	if err := sys.AddActor(hog); err != nil {
		return nil, err
	}
	if err := sys.AddActor(lowly); err != nil {
		return nil, err
	}
	return sys, sys.Validate()
}

// TokenRing builds n actors whose state machines pass a token around a
// ring — the paper's "multiple state machine models interacting with each
// other" (multi-instance input models, experiment E11). Actor 0 starts
// holding the token.
func TokenRing(n int) (*comdes.System, error) {
	if n < 2 {
		return nil, fmt.Errorf("models: token ring needs >= 2 actors")
	}
	sys := comdes.NewSystem(fmt.Sprintf("ring%d", n))
	for i := 0; i < n; i++ {
		initial := "Wait"
		if i == 0 {
			initial = "Hold"
		}
		// Token addresses are 1-based so the unset-signal default (0)
		// never matches a take guard. Node i answers to address i+1 and
		// the pass action forwards to ((i+1) mod n)+1.
		nextAddr := (i+1)%n + 1
		sm, err := comdes.NewStateMachineFB(comdes.SMConfig{
			Name:    "node",
			Inputs:  []comdes.Port{{Name: "tin", Kind: value.Int}},
			Outputs: []comdes.Port{{Name: "tout", Kind: value.Int}},
			Initial: initial,
			States: []comdes.SMStateDef{
				{Name: "Wait", Entry: map[string]string{"tout": "-1"}},
				{Name: "Hold", Entry: map[string]string{"tout": "-1"}},
			},
			Transitions: []comdes.SMTransitionDef{
				{Name: "take", From: "Wait", To: "Hold", Guard: fmt.Sprintf("tin == %d", i+1)},
				{Name: "pass", From: "Hold", To: "Wait", Guard: "true",
					Actions: map[string]string{"tout": fmt.Sprintf("%d", nextAddr)}},
			},
		})
		if err != nil {
			return nil, err
		}
		net := comdes.NewNetwork("ringnet",
			[]comdes.Port{{Name: "tin", Kind: value.Int}},
			[]comdes.Port{{Name: "tout", Kind: value.Int}})
		if err := net.Add(sm); err != nil {
			return nil, err
		}
		net.MustConnect("", "tin", "node", "tin").MustConnect("node", "tout", "", "tout")
		actor, err := comdes.NewActor(fmt.Sprintf("ring%d", i), net,
			comdes.TaskSpec{PeriodNs: 1_000_000, DeadlineNs: 500_000})
		if err != nil {
			return nil, err
		}
		if err := sys.AddActor(actor); err != nil {
			return nil, err
		}
	}
	for i := 0; i < n; i++ {
		next := (i + 1) % n
		if err := sys.Bind(fmt.Sprintf("tok%d", i),
			fmt.Sprintf("ring%d", i), "tout",
			fmt.Sprintf("ring%d", next), "tin"); err != nil {
			return nil, err
		}
	}
	return sys, sys.Validate()
}

// Distributed is a two-node system: a producer ramp on nodeA streamed over
// the network to a consumer on nodeB that doubles it.
func Distributed() (*comdes.System, error) {
	prodNet := comdes.NewNetwork("pnet", nil, []comdes.Port{{Name: "v", Kind: value.Float}})
	prodNet.MustAdd(comdes.MustComponent("const", "one", map[string]value.Value{"value": value.F(1)}))
	prodNet.MustAdd(comdes.MustComponent("sum", "acc", nil))
	prodNet.MustConnect("one", "out", "acc", "a").
		MustConnect("acc", "out", "acc", "b").
		MustConnect("acc", "out", "", "v")
	prod, err := comdes.NewActor("producer", prodNet, comdes.TaskSpec{PeriodNs: 2_000_000, DeadlineNs: 1_000_000})
	if err != nil {
		return nil, err
	}
	consNet := comdes.NewNetwork("cnet",
		[]comdes.Port{{Name: "v", Kind: value.Float}},
		[]comdes.Port{{Name: "twice", Kind: value.Float}})
	consNet.MustAdd(comdes.MustComponent("gain", "dbl", map[string]value.Value{"k": value.F(2)}))
	consNet.MustConnect("", "v", "dbl", "in").MustConnect("dbl", "out", "", "twice")
	cons, err := comdes.NewActor("consumer", consNet, comdes.TaskSpec{PeriodNs: 2_000_000, OffsetNs: 1_500_000, DeadlineNs: 500_000})
	if err != nil {
		return nil, err
	}
	sys := comdes.NewSystem("dist")
	if err := sys.AddActor(prod); err != nil {
		return nil, err
	}
	if err := sys.AddActor(cons); err != nil {
		return nil, err
	}
	if err := sys.Bind("v_sig", "producer", "v", "consumer", "v"); err != nil {
		return nil, err
	}
	if err := sys.Place("producer", "nodeA"); err != nil {
		return nil, err
	}
	if err := sys.Place("consumer", "nodeB"); err != nil {
		return nil, err
	}
	return sys, sys.Validate()
}

// RingCluster is TokenRing placed one actor per node — an n-node
// distributed deployment where every node both produces and consumes a
// cross-node signal, so a TDMA schedule gives each node a slot. Node names
// are zero-padded (node00, node01, ...) so sorted node order equals ring
// order; n is capped at two digits. It is the scale model for the cluster
// execution benchmark (BenchmarkClusterRun/ring32).
func RingCluster(n int) (*comdes.System, error) {
	if n > 99 {
		return nil, fmt.Errorf("models: ring cluster supports at most 99 nodes (zero-padded names)")
	}
	sys, err := TokenRing(n)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		if err := sys.Place(fmt.Sprintf("ring%d", i), fmt.Sprintf("node%02d", i)); err != nil {
			return nil, err
		}
	}
	return sys, sys.Validate()
}

// ChainFSM builds one actor containing n independent two-state machines in
// a single network — a synthetic model-size sweep for the abstraction
// benchmark (E4).
func ChainFSM(n int) (*comdes.System, error) {
	if n < 1 {
		return nil, fmt.Errorf("models: chain needs >= 1 machine")
	}
	inputs := []comdes.Port{{Name: "x", Kind: value.Float}}
	var outputs []comdes.Port
	for i := 0; i < n; i++ {
		outputs = append(outputs, comdes.Port{Name: fmt.Sprintf("o%d", i), Kind: value.Bool})
	}
	net := comdes.NewNetwork("chain", inputs, outputs)
	for i := 0; i < n; i++ {
		sm, err := comdes.NewStateMachineFB(comdes.SMConfig{
			Name:    fmt.Sprintf("m%d", i),
			Inputs:  []comdes.Port{{Name: "x", Kind: value.Float}},
			Outputs: []comdes.Port{{Name: "y", Kind: value.Bool}},
			Initial: "A",
			States: []comdes.SMStateDef{
				{Name: "A", Entry: map[string]string{"y": "false"}},
				{Name: "B", Entry: map[string]string{"y": "true"}},
			},
			Transitions: []comdes.SMTransitionDef{
				{Name: "up", From: "A", To: "B", Guard: fmt.Sprintf("x > %d", i)},
				{Name: "down", From: "B", To: "A", Guard: fmt.Sprintf("x <= %d", i)},
			},
		})
		if err != nil {
			return nil, err
		}
		if err := net.Add(sm); err != nil {
			return nil, err
		}
		net.MustConnect("", "x", sm.Name(), "x").
			MustConnect(sm.Name(), "y", "", fmt.Sprintf("o%d", i))
	}
	actor, err := comdes.NewActor("chain", net, comdes.TaskSpec{PeriodNs: 1_000_000, DeadlineNs: 500_000})
	if err != nil {
		return nil, err
	}
	sys := comdes.NewSystem(fmt.Sprintf("chain%d", n))
	if err := sys.AddActor(actor); err != nil {
		return nil, err
	}
	return sys, sys.Validate()
}
