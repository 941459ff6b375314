package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestReplayDeterminism runs the CI replay-determinism checks through
// run(): a session checkpointed part-way and restored by a second run
// must write the trace of a run that was never interrupted — on a board
// (ring, restored at 1000 ms of 2000) and on a TDMA cluster (dist,
// restored at 51 ms of 100, frames queued and in flight). The CI job
// repeats the check across fresh processes.
func TestReplayDeterminism(t *testing.T) {
	for _, tc := range []struct {
		model                   string
		fullMs, splitMs, restMs string
	}{
		{"ring", "2000", "1000", "1000"},
		{"dist", "100", "51", "49"},
	} {
		t.Run(tc.model, func(t *testing.T) {
			dir := t.TempDir()
			full := filepath.Join(dir, "full.trace")
			cp := filepath.Join(dir, "cp.json")
			resumed := filepath.Join(dir, "resumed.trace")
			for _, args := range [][]string{
				{"-model", tc.model, "-ms", tc.fullMs, "-trace", full},
				{"-model", tc.model, "-ms", tc.splitMs, "-checkpoint", cp},
				{"-model", tc.model, "-restore", cp, "-ms", tc.restMs, "-trace", resumed},
			} {
				if err := run(args, io.Discard); err != nil {
					t.Fatalf("gmdf %v: %v", args, err)
				}
			}
			want, err := os.ReadFile(full)
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(resumed)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 || !bytes.Equal(got, want) {
				t.Fatalf("resumed trace (%d bytes) differs from the uninterrupted run (%d bytes)", len(got), len(want))
			}
		})
	}
}
