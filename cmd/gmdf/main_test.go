package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/farm"
)

// TestFailureStillFlushesTrace: a failure after the run (unwritable -svg
// path) must not truncate the -trace artifact — the deferred flush writes
// the same bytes a clean run writes. This is the regression test for the
// old main(), whose log.Fatal calls skipped every deferred cleanup.
func TestFailureStillFlushesTrace(t *testing.T) {
	dir := t.TempDir()
	clean := filepath.Join(dir, "clean.trace")
	if err := run([]string{"-model", "ring", "-ms", "200", "-trace", clean}, io.Discard); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}

	failed := filepath.Join(dir, "failed.trace")
	badSVG := filepath.Join(dir, "no-such-dir", "frame.svg")
	err = run([]string{"-model", "ring", "-ms", "200", "-trace", failed, "-svg", badSVG}, io.Discard)
	if err == nil {
		t.Fatal("run with unwritable -svg path did not fail")
	}
	got, err := os.ReadFile(failed)
	if err != nil {
		t.Fatalf("failed run left no trace file: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("trace flushed on the failure path differs from a clean run's trace")
	}
}

// TestFailureStillFlushesClusterTrace: same contract on the distributed
// path.
func TestFailureStillFlushesClusterTrace(t *testing.T) {
	dir := t.TempDir()
	clean := filepath.Join(dir, "clean.trace")
	if err := run([]string{"-model", "dist", "-ms", "60", "-trace", clean}, io.Discard); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}
	failed := filepath.Join(dir, "failed.trace")
	badSVG := filepath.Join(dir, "no-such-dir", "frame.svg")
	if err := run([]string{"-model", "dist", "-ms", "60", "-trace", failed, "-svg", badSVG}, io.Discard); err == nil {
		t.Fatal("cluster run with unwritable -svg path did not fail")
	}
	got, err := os.ReadFile(failed)
	if err != nil {
		t.Fatalf("failed cluster run left no trace file: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("cluster trace flushed on the failure path differs from a clean run's trace")
	}
}

// TestBadFlagsReturnError: argument problems come back as errors, they do
// not kill the process.
func TestBadFlagsReturnError(t *testing.T) {
	for _, args := range [][]string{
		{"-model", "no-such-model", "-ms", "10"},
		{"-model", "dist", "-ms", "10", "-cluster-exec", "bogus"},
		{"-model", "dist", "-ms", "10", "-transport", "passive"},
		{"-model", "dist", "-ms", "10", "-campaign", "4", "-campaign-loss", "bogus"},
		{"-model", "dist", "-ms", "10", "-campaign", "4", "-stats"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Fatalf("run(%v) did not fail", args)
		}
	}
}

// TestConnectMatchesInProcess: the -connect client mode against a live
// farm server produces a trace byte-identical to the in-process run of
// the same model and budget — the CI determinism diff, in miniature.
func TestConnectMatchesInProcess(t *testing.T) {
	srv, err := farm.NewServer(farm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	defer srv.Close()

	dir := t.TempDir()
	local := filepath.Join(dir, "local.trace")
	remote := filepath.Join(dir, "remote.trace")
	if err := run([]string{"-model", "heating", "-ms", "300", "-trace", local}, io.Discard); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := run([]string{"-connect", lis.Addr().String(), "-model", "heating", "-ms", "300", "-trace", remote}, &buf); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(local)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(remote)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("remote-driven trace differs from in-process trace")
	}
	if !strings.Contains(buf.String(), "created session") {
		t.Fatalf("unexpected -connect output:\n%s", buf.String())
	}
}

// TestConnectDetachResume: -detach hands back a digest that -resume turns
// into the rest of the run, byte-identically.
func TestConnectDetachResume(t *testing.T) {
	srv, err := farm.NewServer(farm.Options{StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	defer srv.Close()
	addr := lis.Addr().String()

	dir := t.TempDir()
	full := filepath.Join(dir, "full.trace")
	if err := run([]string{"-connect", addr, "-model", "heating", "-ms", "600", "-trace", full}, io.Discard); err != nil {
		t.Fatal(err)
	}
	digestFile := filepath.Join(dir, "digest")
	if err := run([]string{"-connect", addr, "-model", "heating", "-ms", "300", "-detach", "-digest-out", digestFile}, io.Discard); err != nil {
		t.Fatal(err)
	}
	digest, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	resumed := filepath.Join(dir, "resumed.trace")
	if err := run([]string{"-connect", addr, "-model", "heating", "-resume", strings.TrimSpace(string(digest)), "-ms", "300", "-trace", resumed}, io.Discard); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("detach/resume trace differs from the uninterrupted run")
	}
}

// TestProfileFlagsWriteProfiles: -cpuprofile and -memprofile each leave a
// non-empty profile in the pprof format (a gzip-compressed protobuf
// message whose string table starts with the empty string).
func TestProfileFlagsWriteProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	args := []string{"-model", "ring", "-transport", "active", "-ms", "200", "-cpuprofile", cpu, "-memprofile", mem}
	if err := run(args, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkProfile(raw); err != nil {
			t.Errorf("%s: %v", filepath.Base(path), err)
		}
	}
}

// checkProfile parses a pprof profile down to its top-level protobuf
// fields and requires sample types (field 1) and a string table (field
// 6) whose first entry is empty, as the format specifies.
func checkProfile(raw []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	msg, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	var sampleTypes, strs int
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		msg = msg[n:]
		switch key & 7 {
		case 0:
			if _, n = binary.Uvarint(msg); n <= 0 {
				return fmt.Errorf("bad varint in field %d", key>>3)
			}
			msg = msg[n:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("bad length in field %d", key>>3)
			}
			switch key >> 3 {
			case 1:
				sampleTypes++
			case 6:
				if strs == 0 && l != 0 {
					return fmt.Errorf("string table does not start with the empty string")
				}
				strs++
			}
			msg = msg[n+int(l):]
		default:
			return fmt.Errorf("unexpected wire type %d in field %d", key&7, key>>3)
		}
	}
	if sampleTypes == 0 || strs == 0 {
		return fmt.Errorf("%d sample types, %d strings", sampleTypes, strs)
	}
	return nil
}

// TestStatsLine: -stats appends exactly one parseable end-of-run line and
// leaves every other byte of the output as it is without the flag.
func TestStatsLine(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		// nonzero lists the counters this transport must have moved.
		nonzero []string
	}{
		{"ring active", []string{"-model", "ring", "-transport", "active", "-ms", "300"},
			[]string{"uart-tx-bytes", "uart-frames-dropped", "events"}},
		{"heating passive", []string{"-model", "heating", "-transport", "passive", "-ms", "300"},
			[]string{"tck", "probe-ops", "events"}},
		{"dist cluster", []string{"-model", "dist", "-ms", "300"},
			[]string{"uart-tx-bytes", "events"}},
	} {
		var plain, withStats bytes.Buffer
		if err := run(tc.args, &plain); err != nil {
			t.Fatal(err)
		}
		if err := run(append(tc.args, "-stats"), &withStats); err != nil {
			t.Fatal(err)
		}
		body, line, ok := bytes.Cut(withStats.Bytes(), []byte("stats: "))
		if !ok || !bytes.Equal(body, plain.Bytes()) {
			t.Fatalf("%s: output with -stats is not the plain output plus one stats line:\n%s", tc.name, withStats.String())
		}
		fields := map[string]float64{}
		for _, kv := range strings.Fields(strings.TrimSuffix(string(line), "\n")) {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				t.Fatalf("%s: malformed field %q in %q", tc.name, kv, line)
			}
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: field %s: %v", tc.name, k, err)
			}
			fields[k] = f
		}
		for _, k := range []string{"vms", "host-s", "vms-per-host-s", "uart-tx-bytes", "uart-frames-dropped", "tck", "probe-ops", "events"} {
			if _, ok := fields[k]; !ok {
				t.Errorf("%s: stats line lacks %s: %q", tc.name, k, line)
			}
		}
		if fields["vms"] != 300 {
			t.Errorf("%s: vms = %v, want 300", tc.name, fields["vms"])
		}
		for _, k := range tc.nonzero {
			if fields[k] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", tc.name, k, fields[k])
			}
		}
		if fields["host-s"] > 0 && fields["vms-per-host-s"] <= 0 {
			t.Errorf("%s: vms-per-host-s = %v", tc.name, fields["vms-per-host-s"])
		}
	}
}
