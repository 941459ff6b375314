package repro

// Byte pins on checkpoints of both target shapes. The sha256 of each
// marshalled checkpoint is compared against a recorded golden, so any
// change to the portable state — the serial queue's representation, the
// frame encoder, the overrun reporter, the board/host vs cluster/
// clusterHost layout, the per-node command channels — that moves a byte
// fails here:
//
//   - ring over the saturated active UART: the serial FIFO is full of
//     bytes in flight and the target has dropped frames (recorded before
//     the serial queue became run-length);
//   - heating over passive JTAG: no command channel, so the host half
//     carries no serial state;
//   - dist at 51 ms on the TDMA bus: the cluster form, with one command
//     channel per node.
//
// Regenerate only after an intentional format change with:
//
//	go test -run TestSaturatedRingCheckpointBytesPinned -update .

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/target"
	"repro/models"
)

func TestSaturatedRingCheckpointBytesPinned(t *testing.T) {
	cases := []struct {
		name   string
		golden string
		take   func(t *testing.T) *checkpoint.Checkpoint
	}{
		{"ring-active-saturated", "testdata/ring_active_saturated.sha256", func(t *testing.T) *checkpoint.Checkpoint {
			sys, err := models.ByName("ring")
			if err != nil {
				t.Fatal(err)
			}
			dbg, err := Debug(sys, DebugConfig{Transport: Active})
			if err != nil {
				t.Fatal(err)
			}
			if err := dbg.Run(500 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
			cp, err := dbg.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			tx := cp.Board.Link.Dirs[0]
			if len(tx.Queue) < 1024 || tx.Stats.FramesDropped == 0 {
				t.Fatalf("UART not saturated: %d bytes in flight, %d frames dropped", len(tx.Queue), tx.Stats.FramesDropped)
			}
			return cp
		}},
		{"heating-passive", "testdata/heating_passive.sha256", func(t *testing.T) *checkpoint.Checkpoint {
			sys, err := models.ByName("heating")
			if err != nil {
				t.Fatal(err)
			}
			dbg, err := Debug(sys, DebugConfig{Transport: Passive, Environment: StandardEnvironment("heating")})
			if err != nil {
				t.Fatal(err)
			}
			if err := dbg.Run(500 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
			cp, err := dbg.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if cp.Host == nil || cp.Host.Serial != nil || cp.ClusterHost != nil {
				t.Fatalf("passive checkpoint host half: host=%+v clusterHost=%v", cp.Host, cp.ClusterHost)
			}
			return cp
		}},
		{"dist-51ms", "testdata/dist_51ms.sha256", func(t *testing.T) *checkpoint.Checkpoint {
			sys, err := models.ByName("dist")
			if err != nil {
				t.Fatal(err)
			}
			dbg, err := DebugCluster(sys, ClusterDebugConfig{Cluster: StandardClusterConfig(sys.Nodes(), target.ExecAuto)})
			if err != nil {
				t.Fatal(err)
			}
			if err := dbg.Run(51 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
			cp, err := dbg.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if cp.Board != nil || cp.Host != nil || cp.ClusterHost == nil || len(cp.ClusterHost.Serials) != len(sys.Nodes()) {
				t.Fatalf("cluster checkpoint layout: board=%v host=%v clusterHost=%v", cp.Board != nil, cp.Host != nil, cp.ClusterHost)
			}
			return cp
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, err := tc.take(t).Marshal()
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			got := hex.EncodeToString(sum[:])
			if *updateGolden {
				if err := os.WriteFile(tc.golden, []byte(got+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(tc.golden)
			if err != nil {
				t.Fatalf("%v — run `go test -run TestSaturatedRingCheckpointBytesPinned -update .`", err)
			}
			if got != strings.TrimSpace(string(want)) {
				t.Fatalf("checkpoint bytes moved: sha256 %s, golden %s (%d bytes)", got, strings.TrimSpace(string(want)), len(b))
			}
		})
	}
}
