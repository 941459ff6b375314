package target

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/comdes"
	"repro/internal/value"
)

// sameInstantSystem is the equal-instant collision model: producers p1
// (node n1) and p2 (node n2) both latch at t = 500 µs — p1 via deadline
// 500 µs, p2 via offset 100 µs + deadline 400 µs, so their frames share an
// arrival instant but not a schedule history — and consumer cons (node
// n3) releases at exactly the arrival instant. With a 500 µs constant-latency network, both frames, cons's
// release and p1's next release all land on the same nanosecond across
// three nodes.
func sameInstantSystem(t testing.TB) *comdes.System {
	t.Helper()
	ramp := func(name string, task comdes.TaskSpec) *comdes.Actor {
		net := comdes.NewNetwork(name+"net", nil, []comdes.Port{{Name: "v", Kind: value.Float}})
		net.MustAdd(comdes.MustComponent("const", "one", map[string]value.Value{"value": value.F(1)}))
		net.MustAdd(comdes.MustComponent("sum", "acc", nil))
		net.MustConnect("one", "out", "acc", "a").
			MustConnect("acc", "out", "acc", "b").
			MustConnect("acc", "out", "", "v")
		a, err := comdes.NewActor(name, net, task)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	p1 := ramp("p1", comdes.TaskSpec{PeriodNs: 1_000_000, DeadlineNs: 500_000})
	p2 := ramp("p2", comdes.TaskSpec{PeriodNs: 1_000_000, OffsetNs: 100_000, DeadlineNs: 400_000})

	consNet := comdes.NewNetwork("cnet",
		[]comdes.Port{{Name: "a", Kind: value.Float}, {Name: "b", Kind: value.Float}},
		[]comdes.Port{{Name: "s", Kind: value.Float}})
	consNet.MustAdd(comdes.MustComponent("sum", "add", nil))
	consNet.MustConnect("", "a", "add", "a").
		MustConnect("", "b", "add", "b").
		MustConnect("add", "out", "", "s")
	cons, err := comdes.NewActor("cons", consNet,
		comdes.TaskSpec{PeriodNs: 1_000_000, OffsetNs: 1_000_000, DeadlineNs: 500_000})
	if err != nil {
		t.Fatal(err)
	}

	sys := comdes.NewSystem("collide")
	for _, a := range []*comdes.Actor{p1, p2, cons} {
		if err := sys.AddActor(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Bind("sa", "p1", "v", "cons", "a"); err != nil {
		t.Fatal(err)
	}
	if err := sys.Bind("sb", "p2", "v", "cons", "b"); err != nil {
		t.Fatal(err)
	}
	for actor, node := range map[string]string{"p1": "n1", "p2": "n2", "cons": "n3"} {
		if err := sys.Place(actor, node); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestClusterSameInstantPinned proves the collision exists and resolves in
// (at, schedAt, seq) order: both frames arrive at n3 on the same
// nanosecond (t = 1 ms), which is also cons's first release instant, and
// the release latches both.
func TestClusterSameInstantPinned(t *testing.T) {
	cl, err := BuildCluster(sameInstantSystem(t), ClusterConfig{LatencyNs: 500_000})
	if err != nil {
		t.Fatal(err)
	}
	n3 := cl.Boards["n3"]
	read := func(sym string) float64 {
		idx, ok := n3.Prog.Symbols.Index(sym)
		if !ok {
			t.Fatalf("symbol %s missing", sym)
		}
		v, err := n3.LoadSym(idx)
		if err != nil {
			t.Fatal(err)
		}
		return v.Float()
	}
	var releases []uint64
	n3.PreLatch = func(now uint64, actor string) { releases = append(releases, now) }
	cl.RunUntil(999_999)
	if a, b := read("cons.a__io"), read("cons.b__io"); a != 0 || b != 0 {
		t.Fatalf("frames (a=%v b=%v) arrived before t=1ms", a, b)
	}
	cl.RunUntil(1_000_000)
	if a, b := read("cons.a__io"), read("cons.b__io"); a != 1 || b != 1 {
		t.Fatalf("frames (a=%v b=%v) not both delivered at t=1ms", a, b)
	}
	if len(releases) != 1 || releases[0] != 1_000_000 {
		t.Fatalf("consumer releases = %v, want exactly [1000000]", releases)
	}
}

// TestClusterRunUntilReentrantPanics: a RunUntil issued from inside the
// run — here a board release hook, the place host tooling is most tempted
// to do it — must panic loudly instead of corrupting the shared event
// heap.
func TestClusterRunUntilReentrantPanics(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		cl, err := BuildCluster(sameInstantSystem(t), ClusterConfig{LatencyNs: 500_000})
		if err != nil {
			t.Fatal(err)
		}
		var msg any
		done := false
		cl.Boards["n1"].PreLatch = func(now uint64, actor string) {
			if done {
				return
			}
			done = true
			defer func() { msg = recover() }()
			cl.RunUntil(now + 1)
		}
		cl.RunUntil(5_000_000)
		if s, ok := msg.(string); !ok || s != "target: re-entrant Cluster.RunUntil" {
			t.Fatalf("re-entrant RunUntil panic = %v", msg)
		}
		// The guard must have been released: a fresh top-level call works.
		cl.RunUntil(6_000_000)
		if cl.Now() != 6_000_000 {
			t.Fatalf("cluster wedged after recovered re-entrant call: now=%d", cl.Now())
		}
	})
}

// TestClusterRestoreRefusesParallelCheckpoint: a checkpoint written by the
// removed parallel executor keeps its pending events on per-node kernels,
// so resuming it on the shared kernel would lose them. Restore must refuse
// it by name before touching any state.
func TestClusterRestoreRefusesParallelCheckpoint(t *testing.T) {
	cl := tdmaCluster(t, twoNodeBus(), 100_000)
	cl.RunUntil(5_000_000)
	old, err := cl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(old)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["parallel"]; ok {
		t.Fatal("a new snapshot carries the parallel marker")
	}
	doc["parallel"] = json.RawMessage("true")
	if blob, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	var legacy ClusterState
	if err := json.Unmarshal(blob, &legacy); err != nil {
		t.Fatal(err)
	}

	cl.RunUntil(9_000_000)
	before, err := cl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Restore(&legacy); !errors.Is(err, ErrParallelCheckpoint) {
		t.Fatalf("restore of a parallel-form checkpoint: %v, want ErrParallelCheckpoint", err)
	}
	after, err := cl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(before)
	b, _ := json.Marshal(after)
	if !bytes.Equal(a, b) {
		t.Fatal("a refused restore changed the cluster")
	}
}

// TestClusterBusStatsUnknown: the ok bool separates "unknown to the bus"
// from "slot owner with no traffic" — the zero-value ambiguity satellite.
func TestClusterBusStatsUnknown(t *testing.T) {
	tdma := tdmaCluster(t, twoNodeBus(), 100_000)
	if _, ok := tdma.BusStats("ghost"); ok {
		t.Error("unknown node reported bus stats")
	}
	if st, ok := tdma.BusStats("nodeB"); !ok || st.Enqueued != 0 {
		t.Errorf("idle slot owner: ok=%v stats=%+v (want known, zero)", ok, st)
	}
	flat := distCluster(t, 300_000)
	if _, ok := flat.BusStats("nodeA"); ok {
		t.Error("slot-less network reported bus stats")
	}
}
