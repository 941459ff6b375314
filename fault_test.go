package repro_test

import (
	"os"
	"strings"
	"testing"

	"repro"
	"repro/internal/dsl"
)

// TestRunStopsOnTargetFault: a task whose guard divides by zero stops a
// single-board run at the first slice after the fault, with the node's
// error — the same contract cluster runs have always had.
func TestRunStopsOnTargetFault(t *testing.T) {
	src, err := os.ReadFile("testdata/divzero.gmdf")
	if err != nil {
		t.Fatal(err)
	}
	sc, _, err := dsl.LoadSource("divzero.gmdf", string(src))
	if err != nil {
		t.Fatal(err)
	}
	dbg, err := repro.Debug(sc.Sys, sc.DebugConfig())
	if err != nil {
		t.Fatal(err)
	}
	err = dbg.RunNs(sc.RunNs())
	if err == nil {
		t.Fatalf("RunNs over a faulting task returned nil; board error: %v", dbg.Board.Err())
	}
	for _, want := range []string{"repro: node main: target: task a:", "division by zero"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("RunNs error %q does not contain %q", err, want)
		}
	}
	if now := dbg.Board.Now(); now != 1_000_000 {
		t.Fatalf("run went on to t=%d ns after the fault, want it stopped after the first 1 ms slice", now)
	}
}
