package repro

// Byte pin on a checkpoint taken while the active UART is saturated: the
// serial FIFO is full of bytes in flight and the target has dropped
// frames. The sha256 of the marshalled checkpoint is compared against a
// recorded golden, so any change to the serial queue's representation,
// the frame encoder or the overrun reporter that moves a byte of the
// portable state fails here. The golden was recorded before the serial
// queue became run-length; regenerate only after an intentional format
// change with:
//
//	go test -run TestSaturatedRingCheckpointBytesPinned -update .

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"
	"time"

	"repro/models"
)

const saturatedRingGolden = "testdata/ring_active_saturated.sha256"

func TestSaturatedRingCheckpointBytesPinned(t *testing.T) {
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
	b, err := cp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	got := hex.EncodeToString(sum[:])
	if *updateGolden {
		if err := os.WriteFile(saturatedRingGolden, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(saturatedRingGolden)
	if err != nil {
		t.Fatalf("%v — run `go test -run %s -update .`", err, t.Name())
	}
	if got != strings.TrimSpace(string(want)) {
		t.Fatalf("saturated checkpoint bytes moved: sha256 %s, golden %s (%d bytes)", got, strings.TrimSpace(string(want)), len(b))
	}
}
