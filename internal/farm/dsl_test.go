package farm

import (
	"bufio"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestCreateFromSource: a session created from scenario DSL source
// produces the exact trace bytes a session of the equivalent built-in
// model produces — the server-side front end builds the same system the
// constructor does.
func TestCreateFromSource(t *testing.T) {
	src, err := os.ReadFile("../../examples/dsl/heating.gmdf")
	if err != nil {
		t.Fatal(err)
	}
	_, cl := startServer(t, Options{})
	created, err := cl.Create(CreateParams{Source: string(src), SourceName: "heating.gmdf"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(created.Model, "dsl:") {
		t.Fatalf("source session model label = %q, want dsl:<digest>", created.Model)
	}
	if _, err := cl.Attach(created.Session); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RunFor(created.Session, 300); err != nil {
		t.Fatal(err)
	}
	remote, err := cl.TraceStable(created.Session)
	if err != nil {
		t.Fatal(err)
	}
	if want := inProcessTrace(t, "heating", 300); remote.Stable != want {
		t.Fatalf("DSL session trace differs from the heating model trace (%d vs %d bytes)",
			len(remote.Stable), len(want))
	}
}

// TestCreateFromSourceSharesProgram: identical source text compiles once;
// the program cache keys on the source digest.
func TestCreateFromSourceSharesProgram(t *testing.T) {
	src, err := os.ReadFile("../../examples/dsl/heating.gmdf")
	if err != nil {
		t.Fatal(err)
	}
	srv, cl := startServer(t, Options{})
	for i := 0; i < 3; i++ {
		if _, err := cl.Create(CreateParams{Source: string(src)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.StatsSnapshot().ProgramsCached; got != 1 {
		t.Fatalf("ProgramsCached = %d after 3 identical source creates, want 1", got)
	}
}

// TestCreateFromBadSourceRejected: the server gates creates on the full
// checker and the wire error carries rendered file:line:col diagnostics.
func TestCreateFromBadSourceRejected(t *testing.T) {
	_, cl := startServer(t, Options{})
	bad := "system x\n\nactor a {\n    period 10ms\n    deadline 20ms\n    network n {\n        in v float\n        out w float\n        wire .v -> .w\n    }\n}\n"
	_, err := cl.Create(CreateParams{Source: bad, SourceName: "bad.gmdf"})
	if err == nil {
		t.Fatal("bad scenario source was accepted")
	}
	for _, want := range []string{"scenario rejected", "bad.gmdf:5:14", "deadline must be in (0, period]"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("create error missing %q:\n%s", want, err)
		}
	}
}

// TestCreateSourceSizeLimit: MaxSourceBytes bounds what the front end
// will even read; negative disables DSL creates outright.
func TestCreateSourceSizeLimit(t *testing.T) {
	_, cl := startServer(t, Options{MaxSourceBytes: 16})
	_, err := cl.Create(CreateParams{Source: "system oversized_scenario_name\n"})
	if err == nil || !strings.Contains(err.Error(), "limit is 16") {
		t.Fatalf("oversized source: err = %v, want size-limit error", err)
	}

	_, cl2 := startServer(t, Options{MaxSourceBytes: -1})
	_, err = cl2.Create(CreateParams{Source: "system x\n"})
	if err == nil || !strings.Contains(err.Error(), "disabled") {
		t.Fatalf("disabled DSL creates: err = %v, want disabled error", err)
	}
}

// TestRequestLineCapped: the server buffers at most one maximum-size
// legal request line — MaxSourceBytes of source with every byte escaped
// to six JSON bytes, plus a 64 KiB envelope. A line that never ends is cut
// off at that cap with an error naming it, and the connection is closed;
// a maximum-size legal create still succeeds.
func TestRequestLineCapped(t *testing.T) {
	const maxSrc = 8 << 10
	limit := 6*maxSrc + 64<<10
	_, cl := startServer(t, Options{MaxSourceBytes: maxSrc})
	addr := seedAddr

	heating, err := os.ReadFile("../../examples/dsl/heating.gmdf")
	if err != nil {
		t.Fatal(err)
	}
	// A trailing comment of '<', which JSON escapes as \u003c, pads the
	// source to exactly the limit.
	src := string(heating) + "#" + strings.Repeat("<", maxSrc-len(heating)-2) + "\n"
	if len(src) != maxSrc {
		t.Fatalf("padded source is %d bytes, want %d", len(src), maxSrc)
	}
	if _, err := cl.Create(CreateParams{Source: src}); err != nil {
		t.Fatalf("maximum-size create: %v", err)
	}

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	wrote := make(chan error, 1)
	go func() {
		_, err := nc.Write([]byte(strings.Repeat("x", limit+1)))
		wrote <- err
	}()
	if err := nc.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("no reply to an endless request line: %v", err)
	}
	if !strings.Contains(line, strconv.Itoa(limit)) {
		t.Fatalf("reply %q does not name the %d-byte cap", line, limit)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("connection not closed after the cap: %v", err)
	}
	if err := <-wrote; err != nil {
		t.Fatalf("writing the endless line: %v", err)
	}
	// The server and its other connections carry on.
	if _, err := cl.Create(CreateParams{Model: "heating"}); err != nil {
		t.Fatal(err)
	}
}
