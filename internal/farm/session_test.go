package farm

import (
	"os"
	"strings"
	"testing"

	"repro/internal/protocol"
)

// TestRunReportsTargetFault: generated code that faults on a single board
// stops the session's run with the node's error on the wire instead of
// silently spending the whole budget.
func TestRunReportsTargetFault(t *testing.T) {
	src, err := os.ReadFile("../../testdata/divzero.gmdf")
	if err != nil {
		t.Fatal(err)
	}
	_, cl := startServer(t, Options{})
	created, err := cl.Create(CreateParams{Source: string(src), SourceName: "divzero.gmdf"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.RunFor(created.Session, 100)
	if err == nil {
		t.Fatal("run over a faulting task returned no error")
	}
	for _, want := range []string{"repro: node main: target: task a:", "division by zero"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("run error %q does not contain %q", err, want)
		}
	}
	var att AttachResult
	if att, err = cl.Attach(created.Session); err != nil {
		t.Fatal(err)
	}
	if att.NowNs != 1_000_000 {
		t.Fatalf("faulted session ran on to t=%d ns, want it stopped after the first 1 ms slice", att.NowNs)
	}
}

// TestPauseHoldsUntilContinue: after a wire pause the session reports
// paused and run does not advance virtual time until continue.
func TestPauseHoldsUntilContinue(t *testing.T) {
	_, cl := startServer(t, Options{})
	created, err := cl.Create(CreateParams{Model: "heating"})
	if err != nil {
		t.Fatal(err)
	}
	sid := created.Session
	if _, err := cl.RunFor(sid, 20); err != nil {
		t.Fatal(err)
	}
	paused, err := cl.Pause(sid)
	if err != nil {
		t.Fatal(err)
	}
	if !paused.Paused {
		t.Fatal("pause did not report the session paused")
	}
	held, err := cl.RunFor(sid, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !held.Paused || held.NowNs != paused.NowNs {
		t.Fatalf("paused session moved: t=%d paused=%v, want t=%d paused", held.NowNs, held.Paused, paused.NowNs)
	}
	resumed, err := cl.Continue(sid)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Paused {
		t.Fatal("continue left the session paused")
	}
	ran, err := cl.RunFor(sid, 50)
	if err != nil {
		t.Fatal(err)
	}
	if ran.Paused || ran.NowNs != paused.NowNs+50_000_000 {
		t.Fatalf("after continue: t=%d paused=%v, want t=%d running", ran.NowNs, ran.Paused, paused.NowNs+50_000_000)
	}
}

// TestParseEventTypeRoundTrip: every event type's name resolves back to
// it, and names outside the table are refused.
func TestParseEventTypeRoundTrip(t *testing.T) {
	for et := protocol.EvHello; et <= protocol.EvFrameDropped; et++ {
		got, err := ParseEventType(et.String())
		if err != nil || got != et {
			t.Errorf("ParseEventType(%q) = %v, %v; want %v", et.String(), got, err, et)
		}
	}
	for _, name := range []string{"", "Bogus", "stateenter", protocol.EvInvalid.String()} {
		if got, err := ParseEventType(name); err == nil {
			t.Errorf("ParseEventType(%q) = %v, want an error", name, got)
		}
	}
}
