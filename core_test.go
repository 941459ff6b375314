package repro

// Tests of the shape-independent Core: one run loop and one recorder
// serve a standalone board and a TDMA cluster alike.

import (
	"testing"

	"repro/internal/value"
	"repro/models"
)

// TestRecorderReplaysHostActions drives the same timeline on a board
// (ring) and on a cluster (dist): a manual input at t0, a host pause at
// t1, a resume at t2, live running to t3. A second debugger rewinds below
// t0 and replays to t3; the replay must re-apply the manual input on the
// board that owns the actor, mirror the pause into the session between t1
// and t2, fast-forward every command channel's sequence counter, and end
// on the uninterrupted run's exact trace.
func TestRecorderReplaysHostActions(t *testing.T) {
	const (
		t0 = 5_000_000
		t1 = 12_000_000
		t2 = 20_000_000
		t3 = 30_000_000
	)
	cases := []struct {
		name        string
		build       func(t *testing.T) *Core
		actor, port string
		val         value.Value
	}{
		{"board-ring", func(t *testing.T) *Core {
			sys, err := models.ByName("ring")
			if err != nil {
				t.Fatal(err)
			}
			d, err := Debug(sys, DebugConfig{Transport: Active})
			if err != nil {
				t.Fatal(err)
			}
			return &d.Core
		}, "ring2", "tin", value.I(3)},
		{"cluster-dist", func(t *testing.T) *Core {
			sys, err := models.ByName("dist")
			if err != nil {
				t.Fatal(err)
			}
			d, err := DebugCluster(sys, ClusterDebugConfig{Cluster: StandardClusterConfig(sys.Nodes())})
			if err != nil {
				t.Fatal(err)
			}
			return &d.Core
		}, "consumer", "v", value.F(41)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// owner finds the board carrying the actor and reads its input.
			input := func(c *Core) value.Value {
				tg := c.Target()
				for _, node := range tg.Nodes() {
					b := tg.Board(node)
					if u := b.Prog.Unit(tc.actor); u != nil {
						v, err := b.LoadSym(u.InputSyms[tc.port])
						if err != nil {
							t.Fatal(err)
						}
						return v
					}
				}
				t.Fatalf("no board carries actor %s", tc.actor)
				return value.Value{}
			}
			// live runs the recorded timeline up to t3.
			live := func(c *Core) {
				t.Helper()
				if _, err := c.EnableCheckpointing(10 * sliceNs); err != nil {
					t.Fatal(err)
				}
				if err := c.RunNs(t0); err != nil {
					t.Fatal(err)
				}
				tg := c.Target()
				var written bool
				for _, node := range tg.Nodes() {
					if err := tg.Board(node).WriteInput(tc.actor, tc.port, tc.val); err == nil {
						written = true
					}
				}
				if !written {
					t.Fatalf("manual write to %s.%s failed on every node", tc.actor, tc.port)
				}
				if err := c.RunNs(t1 - t0); err != nil {
					t.Fatal(err)
				}
				c.Session.Pause()
				// A paused session's run loop does not advance; the halted
				// target keeps time through the recorder's pump.
				if ok, err := c.Session.ReplayUntil(func(now uint64) bool { return now >= t2 }, t2-t1); err != nil || !ok {
					t.Fatalf("advancing the paused session to t2: ok=%v err=%v", ok, err)
				}
				c.Session.Continue()
				if err := c.RunNs(t3 - t2); err != nil {
					t.Fatal(err)
				}
			}

			ref := tc.build(t)
			live(ref)
			dbg := tc.build(t)
			live(dbg)
			if n := len(dbg.Recorder.Instructions()); n < 2 {
				t.Fatalf("recorder logged %d wire instructions, want the pause and the resume", n)
			}

			landed, err := dbg.Session.RewindTo(t0 + 1)
			if err != nil || landed != t0+1 {
				t.Fatalf("RewindTo(t0+1) = %d, %v", landed, err)
			}
			if !dbg.Recorder.Replaying() {
				t.Fatal("rewound session is not replaying")
			}
			if got := input(dbg); got.String() != tc.val.String() {
				t.Fatalf("manual input not re-applied on the owning board: %s.%s = %v, want %v", tc.actor, tc.port, got, tc.val)
			}
			ok, err := dbg.Session.ReplayUntil(func(now uint64) bool {
				if want := now > t1 && now <= t2; dbg.Session.Paused() != want {
					t.Errorf("t=%d: Paused() = %v, want %v", now, dbg.Session.Paused(), want)
				}
				return now >= t3
			}, t3)
			if err != nil || !ok {
				t.Fatalf("replay to t3: ok=%v err=%v", ok, err)
			}
			if dbg.Now() != t3 || dbg.Recorder.Replaying() {
				t.Fatalf("replay ended at t=%d replaying=%v, want the frontier %d live", dbg.Now(), dbg.Recorder.Replaying(), t3)
			}
			if got, want := dbg.Session.Trace.FormatStable(), ref.Session.Trace.FormatStable(); got != want {
				diffTraces(t, got, want)
			}

			// The next live command continues the original numbering.
			for node, src := range ref.Serials {
				if got, want := dbg.Serials[node].Snapshot().Seq, src.Snapshot().Seq; got != want {
					t.Errorf("node %s: command sequence %d after replay, want %d", node, got, want)
				}
			}
			for _, c := range []*Core{ref, dbg} {
				c.Session.Pause()
				c.Session.Continue()
				if err := c.RunNs(5 * sliceNs); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := dbg.Session.Trace.FormatStable(), ref.Session.Trace.FormatStable(); got != want {
				diffTraces(t, got, want)
			}
		})
	}
}
