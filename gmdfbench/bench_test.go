package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n   int
		pct float64
	}{{11, 100.0 / 11}, {20, 50}, {120, 100 * 110.0 / 120}, {300, 100 * 290.0 / 300}, {600, 100 * 590.0 / 600}, {1000, 99}} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[c.n-1-i] = float64(i + 1) // descending: tailOf must sort
		}
		v, pct, err := tailOf(xs)
		if err != nil {
			t.Fatalf("n=%d: %v", c.n, err)
		}
		if math.Abs(pct-c.pct) > 1e-9 {
			t.Errorf("n=%d: percentile %v, want %v", c.n, pct, c.pct)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("n=%d: %d samples above the tail value %v, want %d", c.n, beyond, v, tailBeyond)
		}
		// No higher percentile keeps ten samples above it: the next rank up
		// leaves nine.
		if _, idx, _ := tailPercentile(c.n); c.n-1-(idx+1) >= tailBeyond {
			t.Errorf("n=%d: rank %d is not the highest with %d above", c.n, idx, tailBeyond)
		}
	}
	for _, n := range []int{0, 1, 10} {
		if _, _, err := tailOf(make([]float64, n)); err == nil {
			t.Errorf("n=%d: tail percentile accepted fewer than %d samples beyond it", n, tailBeyond+1)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{4, 1, 3}); m != 3 {
		t.Errorf("odd median %v, want 3", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v, want 2.5", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

func TestSelfTimeNested(t *testing.T) {
	// root [0,100] has children a [10,40] and b [35,60], which overlap; a
	// has a child c [20,30]; d [90,120] runs past root's end.
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "c", Start: 20, End: 30, Parent: 1},
		{Name: "b", Start: 35, End: 60, Parent: 0},
		{Name: "d", Start: 90, End: 120, Parent: 0},
	}
	want := []int64{100 - 50 - 10, 30 - 10, 10, 25, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: self time %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	lt := summarize(spans)
	if lt.self["a"] != 20 || len(lt.durs["root"]) != 1 || lt.durs["root"][0] != 100 {
		t.Errorf("summarize: self %v durs %v", lt.self, lt.durs)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer(time.Now())
	tr.setOp(7)
	root := tr.begin("op")
	inner := tr.begin("layer")
	tr.add("child", tr.now(), tr.now())
	tr.end(inner)
	tr.end(root)
	if len(tr.spans) != 3 {
		t.Fatalf("%d spans, want 3", len(tr.spans))
	}
	if tr.spans[0].Parent != -1 || tr.spans[1].Parent != 0 || tr.spans[2].Parent != 1 {
		t.Errorf("parents %d %d %d, want -1 0 1", tr.spans[0].Parent, tr.spans[1].Parent, tr.spans[2].Parent)
	}
	for _, s := range tr.spans {
		if s.Op != 7 || s.End < s.Start {
			t.Errorf("span %+v", s)
		}
	}
	var off *tracer // the untraced path
	off.end(off.begin("x"))
	off.add("y", 0, 1)
	off.count("z", 1)
}

// TestSmoke runs every workload with small blocks, untraced and traced,
// with every output check on.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			o := options{
				workload: sp.name, seed: 2, root: "..", state: t.TempDir(),
				minBlocks: 2, opsScale: 0.05, trace: traced,
			}
			rep, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", sp.name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%v", sp.name, traced, rep.Correct, rep.Failed, rep.Attempted, rep.info)
			}
			want := []string{"vms_per_s", "ops_per_s", "op_p50_ms", "setup_s", "alloc_kb_per_op", "live_heap_mb", "ok_frac"}
			if traced {
				want = want[:0]
				for _, pl := range perLayer {
					want = append(want, pl.name)
				}
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", sp.name, traced, len(rep.Metrics), len(want))
			}
			for _, name := range want {
				m, ok := rep.Metrics[name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit == "" {
					t.Errorf("%s trace=%v: metric %s = %+v, present %v", sp.name, traced, name, m, ok)
				}
			}
		}
	}
}
