package farm

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/checkpoint"
	"repro/models"
)

func ringCheckpoint(t *testing.T) *checkpoint.Checkpoint {
	t.Helper()
	sys, err := models.ByName("ring")
	if err != nil {
		t.Fatal(err)
	}
	dbg, err := repro.Debug(sys, repro.DebugConfig{Transport: repro.Active})
	if err != nil {
		t.Fatal(err)
	}
	if err := dbg.RunNs(5_000_000); err != nil {
		t.Fatal(err)
	}
	cp, err := dbg.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// TestStoreRepairsCorruptedEntry: a corrupted <digest>.cp fails its Get,
// and a later Put of the correct checkpoint makes the digest readable
// again — in this process and, with the file rewritten, in the next one.
func TestStoreRepairsCorruptedEntry(t *testing.T) {
	dir := t.TempDir()
	cp := ringCheckpoint(t)
	first, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	digest, _, err := first.Put(cp)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, digest+".cp")
	if err := os.WriteFile(path, []byte(`{"version":1,"time":0}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := NewStore(dir) // a fresh process over the same directory
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(digest); err == nil || !strings.Contains(err.Error(), "corrupted") {
		t.Fatalf("Get of a corrupted entry: %v", err)
	}
	if d, _, err := st.Put(cp); err != nil || d != digest {
		t.Fatalf("Put: %s, %v", d, err)
	}
	got, err := st.Get(digest)
	if err != nil {
		t.Fatalf("Get after the repairing Put: %v", err)
	}
	if got.Time != cp.Time {
		t.Fatalf("repaired entry at %d ns, want %d", got.Time, cp.Time)
	}
	next, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := next.Get(digest); err != nil {
		t.Fatalf("the file was not repaired: %v", err)
	}
}

// TestRunAndRewindBoundsOverflow: a run-for or rewind whose nanosecond
// bound does not fit the virtual clock is refused, not wrapped into a
// tiny or empty slice.
func TestRunAndRewindBoundsOverflow(t *testing.T) {
	_, cl := startServer(t, Options{})
	created, err := cl.Create(CreateParams{Model: "heating", RecordMs: 10})
	if err != nil {
		t.Fatal(err)
	}
	sid := created.Session
	if _, err := cl.RunFor(sid, 20); err != nil {
		t.Fatal(err)
	}
	for _, ms := range []uint64{math.MaxUint64, math.MaxUint64 / 1_000_000} {
		if res, err := cl.RunFor(sid, ms); err == nil {
			t.Fatalf("run-for %d ms accepted, now %d ns", ms, res.NowNs)
		}
	}
	var rw RewindResult
	if err := cl.Call("rewind", sid, RewindParams{ToMs: 1 << 62}, &rw); err == nil {
		t.Fatalf("rewind to 2^62 ms accepted, landed at %d ns", rw.LandedNs)
	}
	res, err := cl.RunFor(sid, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.NowNs != 21_000_000 {
		t.Fatalf("refused bounds moved the session: now %d ns", res.NowNs)
	}
}

// TestAttachPercentilesFollowRecentSamples: once the sample buffer is
// full, new attaches replace the oldest, so percentiles track the recent
// latency instead of freezing on the first attachSampleCap attaches.
func TestAttachPercentilesFollowRecentSamples(t *testing.T) {
	srv, err := NewServer(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i := 0; i < attachSampleCap; i++ {
		srv.st.recordAttach(10 * time.Millisecond)
	}
	for i := 0; i < attachSampleCap; i++ {
		srv.st.recordAttach(time.Microsecond)
	}
	st := srv.StatsSnapshot()
	if st.AttachP50Ns != 1000 || st.AttachP99Ns != 1000 {
		t.Fatalf("p50 %d ns, p99 %d ns after %d fast attaches; want 1000", st.AttachP50Ns, st.AttachP99Ns, attachSampleCap)
	}
	if st.AttachCount != 2*attachSampleCap || st.AttachMaxNs != uint64(10*time.Millisecond) {
		t.Fatalf("count %d, max %d ns", st.AttachCount, st.AttachMaxNs)
	}
}

// TestStatsHTTP: the /stats handler serves the stats snapshot as JSON.
func TestStatsHTTP(t *testing.T) {
	srv, err := NewServer(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.st.recordAttach(3 * time.Millisecond)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
	var got Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if want := srv.StatsSnapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("/stats body %+v, snapshot %+v", got, want)
	}
}
