package checkpoint_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/checkpoint"
	"repro/internal/codegen"
	"repro/internal/dtm"
	"repro/internal/engine"
	"repro/internal/jtag"
	"repro/internal/protocol"
	"repro/internal/serial"
	"repro/internal/target"
	"repro/internal/trace"
	"repro/internal/value"
	"repro/models"
)

// The codec is pinned to encoding/json: Marshal must write the bytes
// json.Encoder.Encode writes, and Unmarshal/Decode must return what
// json.Decoder returns (plus the version check) — the same value or the
// same error — for every input.

func jsonMarshal(c *checkpoint.Checkpoint) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(c)
	return buf.Bytes(), err
}

func jsonDecode(raw []byte) (*checkpoint.Checkpoint, error) {
	var c checkpoint.Checkpoint
	if err := json.NewDecoder(bytes.NewReader(raw)).Decode(&c); err != nil {
		return nil, fmt.Errorf("checkpoint: decode: %w", err)
	}
	if c.Version != checkpoint.Version {
		return nil, fmt.Errorf("checkpoint: unsupported version %d (want %d)", c.Version, checkpoint.Version)
	}
	return &c, nil
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// checkDecode compares Unmarshal and Decode against encoding/json on raw,
// then re-encodes whatever decoded.
func checkDecode(t *testing.T, raw []byte) {
	t.Helper()
	want, wantErr := jsonDecode(raw)
	decoders := map[string]func([]byte) (*checkpoint.Checkpoint, error){
		"Unmarshal": checkpoint.Unmarshal,
		"Decode":    func(b []byte) (*checkpoint.Checkpoint, error) { return checkpoint.Decode(bytes.NewReader(b)) },
	}
	for name, dec := range decoders {
		got, err := dec(raw)
		if !sameErr(err, wantErr) {
			t.Fatalf("%s error %v, encoding/json %v", name, err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s value differs from encoding/json's", name)
		}
	}
	if want != nil {
		checkMarshal(t, want)
	}
}

// checkMarshal compares Marshal, Encode and Digest against encoding/json.
func checkMarshal(t *testing.T, c *checkpoint.Checkpoint) {
	t.Helper()
	want, wantErr := jsonMarshal(c)
	got, err := c.Marshal()
	if !sameErr(err, wantErr) {
		t.Fatalf("Marshal error %v, encoding/json %v", err, wantErr)
	}
	if err != nil {
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Marshal bytes differ from encoding/json's:\n got %.300q\nwant %.300q", got, want)
	}
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil || !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Encode differs from Marshal (err %v)", err)
	}
	if d, err := c.Digest(); err != nil || d != checkpoint.DigestBytes(want) {
		t.Fatalf("Digest %s does not hash the Marshal bytes (err %v)", d, err)
	}
}

// realCheckpoints returns the canonical bytes of ring over the active
// UART, dist on the TDMA bus and heating over passive JTAG, each at
// several instants.
func realCheckpoints(tb testing.TB) map[string][]byte {
	tb.Helper()
	out := map[string][]byte{}
	take := func(name string, run func(time.Duration) error, cp func() (*checkpoint.Checkpoint, error), ms ...int) {
		done := 0
		for _, at := range ms {
			if err := run(time.Duration(at-done) * time.Millisecond); err != nil {
				tb.Fatal(err)
			}
			done = at
			c, err := cp()
			if err != nil {
				tb.Fatal(err)
			}
			raw, err := c.Marshal()
			if err != nil {
				tb.Fatal(err)
			}
			out[fmt.Sprintf("%s@%dms", name, at)] = raw
		}
	}
	for _, tc := range []struct {
		model string
		cfg   repro.DebugConfig
	}{
		{"ring", repro.DebugConfig{Transport: repro.Active}},
		{"heating", repro.DebugConfig{Transport: repro.Passive, Environment: repro.StandardEnvironment("heating")}},
	} {
		sys, err := models.ByName(tc.model)
		if err != nil {
			tb.Fatal(err)
		}
		dbg, err := repro.Debug(sys, tc.cfg)
		if err != nil {
			tb.Fatal(err)
		}
		take(tc.model, dbg.Run, dbg.Checkpoint, 0, 1, 3, 12, 40)
	}
	sys, err := models.ByName("dist")
	if err != nil {
		tb.Fatal(err)
	}
	dbg, err := repro.DebugCluster(sys, repro.ClusterDebugConfig{Cluster: repro.StandardClusterConfig(sys.Nodes())})
	if err != nil {
		tb.Fatal(err)
	}
	take("dist", dbg.Run, dbg.Checkpoint, 20, 60)
	return out
}

// mutations rewrites a canonical checkpoint into inputs the one-pass
// reader must hand to encoding/json: whitespace, key order, duplicate,
// unknown and case-folded keys, null, escapes, odd numbers, out-of-range
// integers and trailing data.
func mutations(raw []byte) [][]byte {
	s := string(raw)
	var out [][]byte
	add := func(m string) {
		if m != s {
			out = append(out, []byte(m))
		}
	}
	sub := func(re, repl string) { add(regexp.MustCompile(re).ReplaceAllString(s, repl)) }
	first := func(old, repl string) { add(strings.Replace(s, old, repl, 1)) }

	var ind bytes.Buffer
	if json.Indent(&ind, raw, "", "  ") == nil {
		add(ind.String())
	}
	add(" \n\t" + s)
	first(`":`, `" : `)
	sub(`^\{"version":(\d+),"time":(\d+)`, `{"time":$2,"version":$1`)
	first(`{"version":1,`, `{"version":1,"version":1,`)
	first(`{"version":1,`, `{"version":2,"version":1,`)
	first(`{"version":1,`, `{"unknown":[1,{"a":"}"}],"version":1,`)
	first(`"version":`, `"Version":`)
	first(`"time":`, `"TIME":`)
	first(`"lineFree":`, `"LineFree":`)
	first(`"records":`, `"Records":`)
	first(`"dec":{}`, `"dec":null`)
	first(`"dec":{}`, `"dec":{"errors":-1}`)
	first(`"ram":`, `"ram":null,"x":`)
	first(`"trace":{`, `"trace":null,"y":{`)
	first(`"records":[`, `"records":null,"z":[`)
	first(`"name":"`, `"name":"\u0041\/\"\\\n\t\u00e9\ud83d\ude00`)
	first(`"name":"`, `"name":"\ud800`)
	first(`"name":"`, `"name":"\x`)
	first(`"name":"`, "\"name\":\"\xff\xfe")
	first(`"name":"`, "\"name\":\"\x01")
	first(`"name":"`, "\"name\":\"é\u2028")
	first(`"program":"`, `"program":"\u003c\u0026\u003e`)
	sub(`"Value":[-0-9.e]+`, `"Value":-0`)
	sub(`"Value":[-0-9.e]+`, `"Value":1e21`)
	sub(`"Value":[-0-9.e]+`, `"Value":1e-7`)
	sub(`"Value":[-0-9.e]+`, `"Value":1.5E+3`)
	sub(`"Value":[-0-9.e]+`, `"Value":1e400`)
	sub(`"Value":[-0-9.e]+`, `"Value":-`)
	sub(`"Value":[-0-9.e]+`, `"Value":01`)
	sub(`"Value":[-0-9.e]+`, `"Value":123456789012345678`)
	sub(`"Value":[-0-9.e]+`, `"Value":"1"`)
	first(`{"b":`, `{"b":256,"x":`)
	first(`{"b":`, `{"b":-1,"x":`)
	first(`{"b":`, `{"b":1.0,"x":`)
	first(`,"at":`, `,"at":18446744073709551616,"x":`)
	first(`,"at":`, `,"at":18446744073709551615,"x":`)
	first(`"time":`, `"time":0`)
	first(`"time":`, `"time":-`)
	first(`"version":1`, `"version":-0`)
	first(`"version":1`, `"version":99999999999999999999`)
	first(`"seq":`, `"seq":65536,"x":`)
	first(`"baud":`, `"baud":-9223372036854775808,"x":`)
	first(`"dirs":[{`, `"dirs":[{},{`)
	first(`"boards":{`, `"boards":{"zz":{},`)
	sub(`"queue":\[[^\]]*\],`, `"queue":[],`)
	sub(`"rx":"[^"]*"`, `"rx":"***"`)
	sub(`"rx":"[^"]*"`, `"rx":""`)
	if i := strings.Index(s, `"boards":{"`) + len(`"boards":{`); i >= len(`"boards":{`) {
		// Repeat the first board: encoding/json keeps the last of the two.
		dec := json.NewDecoder(strings.NewReader(s[i-1:]))
		var board json.RawMessage
		if _, err := dec.Token(); err == nil {
			if name, err := dec.Token(); err == nil && dec.Decode(&board) == nil {
				key, _ := json.Marshal(name)
				add(s[:i] + string(key) + ":" + string(board) + "," + s[i:])
			}
		}
	}
	add(s + "garbage")
	add(strings.TrimSuffix(s, "\n") + "{")
	add(s[:len(s)/2])
	add(s[:len(s)-2])
	add("")
	add("null")
	add("{}")
	return out
}

// TestCodecMatchesEncodingJSONOnRealCheckpoints: real checkpoints of all
// three shapes marshal to encoding/json's bytes, take the one-pass path,
// and decode — mutated or not — exactly as encoding/json decodes them.
func TestCodecMatchesEncodingJSONOnRealCheckpoints(t *testing.T) {
	for name, raw := range realCheckpoints(t) {
		t.Run(name, func(t *testing.T) {
			if !checkpoint.FastDecodes(raw) {
				t.Fatal("canonical bytes fell back to encoding/json")
			}
			checkDecode(t, raw)
			for _, m := range mutations(raw) {
				checkDecode(t, m)
			}
		})
	}
}

// TestCodecMatchesEncodingJSONOnCraftedStates covers what short runs do
// not produce: every optional field set, strings needing escapes, floats
// at encoding/json's format boundaries, nil versus empty slices, maps
// sorted as strings, and values encoding/json refuses.
func TestCodecMatchesEncodingJSONOnCraftedStates(t *testing.T) {
	rec := func(v float64, s string) trace.Record {
		return trace.Record{Seq: 1, RecvNs: 2, Event: protocol.Event{Type: protocol.EvSignal, Seq: 65535, Time: math.MaxUint64, Source: s, Arg1: "a<b", Arg2: "", Value: v}}
	}
	var recs []trace.Record
	for _, v := range []float64{0, math.Copysign(0, -1), 1, -1.5, 1e21, 1e20, 1e-7, 1e-6, 123.456, 5e-324, math.MaxFloat64, -math.MaxFloat64, 1 << 53, 1<<53 + 2} {
		recs = append(recs, rec(v, "src"))
	}
	for _, s := range []string{"<&>", "\u2028\u2029", "\xff\xfe", "a\x00\x01\x1f\x7f", "\"\\/\b\f\n\r\t", "é日本\U0001F600", "\ufffd"} {
		recs = append(recs, rec(0.5, s))
	}
	ms := codegen.MachineState{PC: 3, Stack: []value.Encoded{{K: "int", V: "4"}}}
	board := func(name string, withKernel bool) *target.BoardState {
		b := &target.BoardState{
			Name: name, Program: "prog<" + name + ">",
			Sched: dtm.SchedulerState{
				Policy: 1, CtxSwitchNs: 5, Halted: true, JobSeq: 9,
				Tasks:   []dtm.TaskState{{Name: "t", LastError: "x & y", NextRelease: 10}},
				Jobs:    []dtm.JobState{{Task: "t", Seq: 3, In: map[string]value.Encoded{"b": {K: "float", V: "1.5"}, "a": {K: "bool", V: "true"}}, Done: true}},
				LastJob: &dtm.JobRef{Task: "t", Seq: 3},
				Pending: []dtm.PendingOutputState{{Task: "t", At: 7, Seq: 8}},
			},
			RAM: []byte{0, 1, 2, 250, 251, 252, 253, 254, 255},
			Link: serial.LinkState{Baud: 115200, Now: 99, Dirs: [2]serial.DirectionState{
				{Queue: []serial.InflightState{{B: 0x7e, Arrival: 100}, {B: 255, Arrival: math.MaxUint64}}, Rx: []byte("rx+/="), LineFree: 3, Stats: serial.Stats{Bytes: 1, BusyNs: 2, Dropped: 3, Overruns: 4, FramesDropped: 5}},
				{Rx: []byte{}, Queue: []serial.InflightState{}},
			}},
			Seq: 65535, Cycles: 1, Instr: 2, DropsSeen: 3, LastErr: "bad\u2028",
			Dec:      protocol.DecoderState{Body: []byte{1, 2}, InFrame: true, Esc: true, Noise: true, Errors: -2},
			Agent:    target.AgentState{Breaks: []target.BreakState{{ID: "b", Cond: "x < 3 && y > 1", Hot: true, Hits: 2}}, Round: 4, StepArm: true},
			Units:    map[string]target.UnitExecState{"u2": {Active: true, M: &ms}, "u10": {Rel: 4}},
			Susp:     &target.SuspState{Unit: "u", Rel: 2, M: ms},
			Deferred: []target.DeferredLatchState{{Unit: "u", At: 1, Seq: 2}},
		}
		if withKernel {
			b.Kernel = &dtm.KernelState{Now: 1, Seq: 2, Ran: 3, SchedAts: map[uint64]uint64{2: 20, 10: 100, 1: 10}}
		}
		return b
	}
	session := engine.SessionState{
		Paused: true, Mode: 255, Handled: 7, LastBreak: "bp<1>",
		Breaks:  []engine.BreakpointState{{ID: "bp<1>", Event: protocol.EvBreak, Cond: "v >= 2 && v < 9", Enabled: true}},
		Trace:   &trace.Trace{Program: "p", Records: recs},
		Watcher: &jtag.WatcherState{Seq: 4, Last: map[string]value.Encoded{"w": {K: "int", V: "1"}}},
	}
	cases := map[string]*checkpoint.Checkpoint{
		"board-full": {Version: 1, Time: math.MaxUint64, Board: board("b", true), Host: &checkpoint.HostState{
			Session: session, Serial: &engine.SerialSourceState{Seq: 3, Dec: protocol.DecoderState{Body: []byte{9}}},
		}},
		"board-empty": {Version: 1, Board: &target.BoardState{}, Host: &checkpoint.HostState{}},
		"board-nil-records": {Version: 1, Board: &target.BoardState{RAM: []byte{}}, Host: &checkpoint.HostState{
			Session: engine.SessionState{Trace: &trace.Trace{}},
		}},
		"board-empty-records": {Version: 1, Board: board("x", false), Host: &checkpoint.HostState{
			Session: engine.SessionState{Trace: &trace.Trace{Records: []trace.Record{}}},
		}},
		"cluster-full": {Version: 1, Time: 5, Cluster: &target.ClusterState{
			Parallel: true,
			Kernel:   dtm.KernelState{Now: 5, SchedAts: map[uint64]uint64{100: 1, 99: 2}},
			Net: dtm.NetworkState{LatencyNs: 1, Sent: 2, Flights: []dtm.FlightState{{Signal: "s", Val: value.Encoded{K: "int", V: "3"}, At: 4, Dst: "n"}},
				Cursor: map[string]uint64{"n": 1}, Stats: map[string]dtm.BusStats{"n": {Queued: -1}}},
			Boards:  map[string]*target.BoardState{"nodeB": board("nodeB", false), "nodeA": board("nodeA", false), "<n>": board("<n>", false), "\u00e9": board("e", false)},
			Inboxes: map[string]dtm.StoreState{"nodeA": {"sig": {K: "int", V: "1"}}},
		}, ClusterHost: &checkpoint.ClusterHostState{
			Session: session,
			Serials: map[string]engine.SerialSourceState{"nodeB": {Seq: 1}, "nodeA": {Seq: 2}},
		}},
		"cluster-empty":     {Version: 1, Cluster: &target.ClusterState{}, ClusterHost: &checkpoint.ClusterHostState{}},
		"cluster-no-boards": {Version: 1, Cluster: &target.ClusterState{Boards: map[string]*target.BoardState{}}},
		"cluster-nil-board": {Version: 1, Cluster: &target.ClusterState{Boards: map[string]*target.BoardState{"a": nil}}},
		"version-0":         {},
		"version-negative":  {Version: -7, Time: 1},
		"nil":               nil,
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			checkMarshal(t, c)
			raw, err := c.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if c != nil && name != "cluster-nil-board" && !checkpoint.FastDecodes(raw) {
				t.Fatal("canonical bytes fell back to encoding/json")
			}
			checkDecode(t, raw)
			for _, m := range mutations(raw) {
				checkDecode(t, m)
			}
		})
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		c := &checkpoint.Checkpoint{Version: 1, Host: &checkpoint.HostState{Session: engine.SessionState{
			Trace: &trace.Trace{Records: []trace.Record{rec(v, "s")}},
		}}}
		checkMarshal(t, c)
	}
}

// FuzzCheckpointCodec pins the codec to encoding/json on arbitrary input:
// Unmarshal and Decode return encoding/json's value or its exact error,
// and whatever decodes re-marshals to encoding/json's bytes.
func FuzzCheckpointCodec(f *testing.F) {
	for _, raw := range realCheckpoints(f) {
		if len(raw) > 16<<10 {
			continue // the mutator and minimizer crawl on large inputs
		}
		f.Add(raw)
		for _, m := range mutations(raw) {
			f.Add(m)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkDecode(t, raw)
	})
}
