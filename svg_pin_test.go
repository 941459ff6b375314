package repro

// Byte pin on the animated model view. Every RenderSVG frame at 1 ms
// steps over 300 virtual ms is hashed, for heating over passive JTAG
// (with a rewind and replay mid-run, so the ResetAnimation/ClearDynamic
// path renders too), heating and ring over the active UART, and the
// dist cluster. Any change to the SVG renderer, the scene builder or the
// reactions that moves one byte of one frame fails here.
//
// Regenerate only after an intentional change to the rendered frames with:
//
//	go test -run TestSVGFramesPinned -update .

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"strings"
	"testing"
	"time"

	"repro/models"
)

const svgFramesGolden = "testdata/svg_frames.sha256"

func TestSVGFramesPinned(t *testing.T) {
	const steps = 300
	frame := func(h hash.Hash, svg string) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(svg)))
		h.Write(n[:])
		h.Write([]byte(svg))
	}
	board := func(model string, tp Transport, rewindAt int) func(t *testing.T, h hash.Hash) {
		return func(t *testing.T, h hash.Hash) {
			sys, err := models.ByName(model)
			if err != nil {
				t.Fatal(err)
			}
			dbg, err := Debug(sys, DebugConfig{
				Transport:   tp,
				Environment: StandardEnvironment(model),
				Board:       StandardBoardConfig(model),
			})
			if err != nil {
				t.Fatal(err)
			}
			if rewindAt > 0 {
				if _, err := dbg.EnableCheckpointing(10 * time.Millisecond); err != nil {
					t.Fatal(err)
				}
			}
			frame(h, dbg.RenderSVG())
			for i := 1; i <= steps; i++ {
				if err := dbg.Run(time.Millisecond); err != nil {
					t.Fatal(err)
				}
				frame(h, dbg.RenderSVG())
				if i != rewindAt {
					continue
				}
				frontier := dbg.Recorder.Frontier()
				if _, err := dbg.Session.RewindTo(frontier - 37_000_000); err != nil {
					t.Fatal(err)
				}
				frame(h, dbg.RenderSVG())
				ok, err := dbg.Session.ReplayUntil(func(now uint64) bool { return now >= frontier }, 40_000_000)
				if err != nil || !ok {
					t.Fatalf("replay to the frontier: ok=%v err=%v", ok, err)
				}
				frame(h, dbg.RenderSVG())
			}
		}
	}
	cases := []struct {
		name string
		run  func(t *testing.T, h hash.Hash)
	}{
		{"heating-passive-rewind", board("heating", Passive, 150)},
		{"heating-active", board("heating", Active, 0)},
		{"ring-active", board("ring", Active, 0)},
		{"dist", func(t *testing.T, h hash.Hash) {
			sys, err := models.ByName("dist")
			if err != nil {
				t.Fatal(err)
			}
			dbg, err := DebugCluster(sys, ClusterDebugConfig{Cluster: StandardClusterConfig(sys.Nodes())})
			if err != nil {
				t.Fatal(err)
			}
			frame(h, dbg.RenderSVG())
			for i := 1; i <= steps; i++ {
				if err := dbg.Run(time.Millisecond); err != nil {
					t.Fatal(err)
				}
				frame(h, dbg.RenderSVG())
			}
		}},
	}
	var got strings.Builder
	for _, tc := range cases {
		h := sha256.New()
		t.Run(tc.name, func(t *testing.T) { tc.run(t, h) })
		fmt.Fprintf(&got, "%s %s\n", hex.EncodeToString(h.Sum(nil)), tc.name)
	}
	if t.Failed() {
		return
	}
	if *updateGolden {
		if err := os.WriteFile(svgFramesGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(svgFramesGolden)
	if err != nil {
		t.Fatalf("%v — run `go test -run TestSVGFramesPinned -update .`", err)
	}
	if got.String() != string(want) {
		t.Fatalf("rendered SVG frames moved:\ngot\n%swant\n%s", got.String(), want)
	}
}
