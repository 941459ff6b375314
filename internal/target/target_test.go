package target

import (
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/jtag"
	"repro/internal/protocol"
	"repro/internal/value"
	"repro/models"
)

// fullInstrument is the complete active command interface.
var fullInstrument = codegen.Instrument{StateEnter: true, Transitions: true, Signals: true}

// heatingBoard compiles the flagship model with the given instrumentation
// and attaches a simple ramp environment (no plant dependency: the room
// warms while the heater is on and cools otherwise).
func heatingBoard(t testing.TB, instr codegen.Instrument, cfg Config) *Board {
	t.Helper()
	sys, err := models.Heating(models.HeatingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := codegen.Compile(sys, codegen.Options{Instrument: instr})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Bindings = append(cfg.Bindings, sys.Bindings...)
	b, err := NewBoard("main", prog, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	temp := 15.0
	b.PreLatch = func(now uint64, actor string) {
		if actor != "heater" {
			return
		}
		if p, err := b.ReadOutput("heater", "power"); err == nil && p.Float() > 0 {
			temp += 0.5
		} else {
			temp -= 0.3
		}
		_ = b.WriteInput("heater", "temp", value.F(temp))
		_ = b.WriteInput("heater", "mode", value.I(2))
	}
	return b
}

// drain runs the board in 1 ms slices collecting decoded host-side events.
func drain(t testing.TB, b *Board, ms int) []protocol.Event {
	t.Helper()
	var dec protocol.Decoder
	var evs []protocol.Event
	for i := 0; i < ms; i++ {
		b.RunFor(1_000_000)
		got, _ := dec.Feed(b.HostPort().Recv())
		evs = append(evs, got...)
	}
	return evs
}

func TestBootAnnouncesHelloFirst(t *testing.T) {
	b := heatingBoard(t, fullInstrument, Config{})
	if b.Now() != 0 {
		t.Fatalf("boot time = %d, want 0", b.Now())
	}
	evs := drain(t, b, 50)
	if len(evs) == 0 {
		t.Fatal("no events")
	}
	if evs[0].Type != protocol.EvHello || evs[0].Source != "heating" {
		t.Fatalf("first event = %+v, want Hello from %q", evs[0], "heating")
	}
	// The instrumented init code announces the initial state.
	var sawInitial bool
	for _, ev := range evs {
		if ev.Type == protocol.EvStateEnter && ev.Source == "heater.thermostat" && ev.Arg1 == "Idle" {
			sawInitial = true
		}
	}
	if !sawInitial {
		t.Errorf("initial state never announced: %v", evs)
	}
}

func TestVirtualClockMonotonic(t *testing.T) {
	b := heatingBoard(t, codegen.Instrument{}, Config{})
	var last uint64
	for i := 1; i <= 20; i++ {
		b.RunFor(700_001) // deliberately off the period grid
		now := b.Now()
		if now != uint64(i)*700_001 {
			t.Fatalf("after %d runs Now = %d, want %d", i, now, uint64(i)*700_001)
		}
		if now <= last && i > 1 {
			t.Fatalf("clock not monotonic: %d after %d", now, last)
		}
		last = now
	}
	// Release times observed by PreLatch stay on the period grid even
	// though RunFor slices are not aligned to it.
	var releases []uint64
	b.PreLatch = func(now uint64, actor string) {
		if actor == "heater" {
			releases = append(releases, now)
		}
	}
	b.RunFor(50_000_000)
	if len(releases) == 0 {
		t.Fatal("no releases observed")
	}
	for _, r := range releases {
		if r%10_000_000 != 0 {
			t.Errorf("release at %d off the 10 ms grid", r)
		}
	}
}

func TestCycleAccountingSplitsInstrumentation(t *testing.T) {
	clean := heatingBoard(t, codegen.Instrument{}, Config{})
	active := heatingBoard(t, fullInstrument, Config{})
	for i := 0; i < 200; i++ {
		clean.RunFor(1_000_000)
		active.RunFor(1_000_000)
	}
	if clean.Cycles() == 0 {
		t.Fatal("clean board executed nothing")
	}
	if clean.InstrumentationCycles() != 0 {
		t.Errorf("clean instrumentation cycles = %d, want 0", clean.InstrumentationCycles())
	}
	if active.InstrumentationCycles() == 0 {
		t.Fatal("active board reports no instrumentation cycles")
	}
	if active.InstrumentationCycles()%codegen.EmitCycles != 0 {
		t.Errorf("instr cycles %d not a multiple of EmitCycles", active.InstrumentationCycles())
	}
	// The identical environment drives identical control flow, so the
	// active build costs exactly the clean cycles plus the emits.
	if got, want := active.Cycles(), clean.Cycles()+active.InstrumentationCycles(); got != want {
		t.Errorf("active cycles = %d, want clean %d + instr %d = %d",
			got, clean.Cycles(), active.InstrumentationCycles(), want)
	}
}

func TestHaltFreezesExecutionNotTime(t *testing.T) {
	b := heatingBoard(t, codegen.Instrument{}, Config{})
	b.RunFor(50_000_000)
	frozen := b.Cycles()
	mark := b.Now()
	b.Halt()
	if !b.Halted() {
		t.Fatal("Halt did not latch")
	}
	b.RunFor(50_000_000)
	if b.Now() != mark+50_000_000 {
		t.Errorf("time did not advance while halted: %d", b.Now())
	}
	if b.Cycles() != frozen {
		t.Errorf("cycles advanced while halted: %d -> %d", frozen, b.Cycles())
	}
	b.Resume()
	if b.Halted() {
		t.Fatal("Resume did not clear halt")
	}
	b.RunFor(50_000_000)
	if b.Cycles() <= frozen {
		t.Error("resume did not restart execution")
	}
}

func TestHaltKeepsReleaseRhythm(t *testing.T) {
	b := heatingBoard(t, codegen.Instrument{}, Config{})
	var releases []uint64
	b.PreLatch = func(now uint64, actor string) {
		if actor == "heater" {
			releases = append(releases, now)
		}
	}
	b.RunFor(25_000_000)
	b.Halt()
	b.RunFor(30_000_000)
	during := len(releases)
	b.Resume()
	b.RunFor(30_000_000)
	for _, r := range releases {
		if r%10_000_000 != 0 {
			t.Fatalf("release at %d off grid after halt/resume", r)
		}
	}
	if during >= len(releases) {
		t.Error("no releases after resume")
	}
	for i, r := range releases {
		if r >= 25_000_000 && r < 55_000_000 {
			t.Errorf("release %d at %d fired while halted", i, r)
		}
	}
}

func TestUARTByteTimingMatchesBaud(t *testing.T) {
	for _, baud := range []int{9600, 115200, 1_000_000} {
		b := heatingBoard(t, codegen.Instrument{}, Config{Baud: baud})
		byteTime := b.Link.ByteTimeNs()
		if want := uint64(10 * 1_000_000_000 / baud); byteTime != want {
			t.Fatalf("baud %d: byte time %d, want %d", baud, byteTime, want)
		}
		// The boot Hello frame is queued at t=0: after k byte times,
		// exactly k bytes have arrived host-side.
		b.RunFor(byteTime)
		if got := len(b.HostPort().Recv()); got != 1 {
			t.Errorf("baud %d: %d bytes after one byte time, want 1", baud, got)
		}
		b.RunFor(3 * byteTime)
		if got := len(b.HostPort().Recv()); got != 3 {
			t.Errorf("baud %d: %d bytes after three more byte times, want 3", baud, got)
		}
	}
}

func TestSlowLineDelaysFrames(t *testing.T) {
	fast := heatingBoard(t, fullInstrument, Config{Baud: 1_000_000})
	slow := heatingBoard(t, fullInstrument, Config{Baud: 2400})
	var fdec, sdec protocol.Decoder
	fastN, slowN := 0, 0
	for i := 0; i < 100; i++ {
		fast.RunFor(1_000_000)
		slow.RunFor(1_000_000)
		evs, _ := fdec.Feed(fast.HostPort().Recv())
		fastN += len(evs)
		evs, _ = sdec.Feed(slow.HostPort().Recv())
		slowN += len(evs)
	}
	if fastN <= slowN {
		t.Errorf("fast line delivered %d <= slow %d", fastN, slowN)
	}
}

func TestTAPMemoryRoundTrip(t *testing.T) {
	b := heatingBoard(t, codegen.Instrument{}, Config{})
	b.PreLatch = nil // manual stimulus only
	probe := jtag.NewProbe(b.TAP)
	probe.Reset()
	if got := probe.ReadIDCODE(); got != DefaultIDCode {
		t.Fatalf("IDCODE = %#x, want %#x", got, DefaultIDCode)
	}

	idx, ok := b.Prog.Symbols.Index("heater.temp__io")
	if !ok {
		t.Fatal("input symbol missing")
	}
	sym := b.Prog.Symbols.Sym(idx)

	// Board write -> probe read.
	if err := b.WriteInput("heater", "temp", value.F(23.5)); err != nil {
		t.Fatal(err)
	}
	raw := probe.ReadBytes(sym.Addr, int(sym.Size))
	v, err := value.DecodeBytes(sym.Kind, raw)
	if err != nil {
		t.Fatal(err)
	}
	if v.Float() != 23.5 {
		t.Errorf("probe read %v, want 23.5", v)
	}

	// Probe write -> board read (the debug port can patch RAM).
	var buf [8]byte
	if _, err := value.EncodeBytes(value.F(-7.25), buf[:]); err != nil {
		t.Fatal(err)
	}
	var word uint64
	for i := 7; i >= 0; i-- {
		word = word<<8 | uint64(buf[i])
	}
	probe.WriteWord(sym.Addr, word)
	got, err := b.LoadSym(idx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Float() != -7.25 {
		t.Errorf("board read %v after probe write, want -7.25", got)
	}

	// Probe traffic must never cost target cycles.
	before := b.Cycles()
	for i := 0; i < 100; i++ {
		probe.ReadWord(uint32(i * 8 % 64))
	}
	if b.Cycles() != before {
		t.Error("JTAG reads consumed target cycles")
	}
}

func TestWriteInputReadOutputValidation(t *testing.T) {
	b := heatingBoard(t, codegen.Instrument{}, Config{})
	if err := b.WriteInput("ghost", "temp", value.F(1)); err == nil {
		t.Error("unknown actor accepted")
	}
	if err := b.WriteInput("heater", "ghost", value.F(1)); err == nil {
		t.Error("unknown input accepted")
	}
	if _, err := b.ReadOutput("ghost", "power"); err == nil {
		t.Error("unknown actor read accepted")
	}
	if _, err := b.ReadOutput("heater", "ghost"); err == nil {
		t.Error("unknown output read accepted")
	}
	// Cold room => thermostat heats => published power reaches 100 after a
	// deadline latch.
	b.RunFor(20_000_000)
	p, err := b.ReadOutput("heater", "power")
	if err != nil {
		t.Fatal(err)
	}
	if p.Float() != 100 {
		t.Errorf("power = %v, want 100", p)
	}
	if err := b.Err(); err != nil {
		t.Errorf("board error: %v", err)
	}
	if b.DeadlineMisses() != 0 {
		t.Errorf("deadline misses = %d", b.DeadlineMisses())
	}
}

func TestPreLatchSeesEveryRelease(t *testing.T) {
	b := heatingBoard(t, codegen.Instrument{}, Config{})
	type rel struct {
		now   uint64
		actor string
	}
	var rels []rel
	b.PreLatch = func(now uint64, actor string) {
		rels = append(rels, rel{now, actor})
	}
	b.RunFor(30_000_000)
	// heater: period 10 ms offset 0; monitor: period 10 ms offset 5 ms.
	want := []rel{
		{0, "heater"}, {5_000_000, "monitor"},
		{10_000_000, "heater"}, {15_000_000, "monitor"},
		{20_000_000, "heater"}, {25_000_000, "monitor"},
		{30_000_000, "heater"},
	}
	if len(rels) != len(want) {
		t.Fatalf("releases = %v, want %v", rels, want)
	}
	for i := range want {
		if rels[i] != want[i] {
			t.Errorf("release %d = %v, want %v", i, rels[i], want[i])
		}
	}
}

func TestSignalEventsStampDeadlineInstant(t *testing.T) {
	b := heatingBoard(t, codegen.Instrument{Signals: true}, Config{Baud: 1_000_000})
	evs := drain(t, b, 30)
	var signals []protocol.Event
	for _, ev := range evs {
		if ev.Type == protocol.EvSignal {
			signals = append(signals, ev)
		}
	}
	if len(signals) == 0 {
		t.Fatal("no signal events")
	}
	for _, ev := range signals {
		switch ev.Source {
		case "heater.heat", "heater.power":
			if ev.Time%10_000_000 != 5_000_000 {
				t.Errorf("%s stamped %d, not at the 5 ms deadline grid", ev.Source, ev.Time)
			}
		case "monitor.alarm":
			if ev.Time%10_000_000 != 0 {
				t.Errorf("%s stamped %d, not at the 10 ms deadline grid", ev.Source, ev.Time)
			}
		default:
			t.Errorf("unexpected signal source %q", ev.Source)
		}
	}
}

func TestLocalBindingDeliversAtProducerDeadline(t *testing.T) {
	b := heatingBoard(t, codegen.Instrument{}, Config{})
	idx, ok := b.Prog.Symbols.Index("monitor.power__io")
	if !ok {
		t.Fatal("monitor input symbol missing")
	}
	// Before the heater's first deadline (t=5ms) nothing was published.
	b.RunFor(4_000_000)
	v, err := b.LoadSym(idx)
	if err != nil {
		t.Fatal(err)
	}
	if v.Float() != 0 {
		t.Fatalf("binding delivered early: %v", v)
	}
	// After it, the published power (100: cold room) crossed the binding.
	b.RunFor(2_000_000)
	v, err = b.LoadSym(idx)
	if err != nil {
		t.Fatal(err)
	}
	if v.Float() != 100 {
		t.Errorf("monitor input = %v after producer deadline, want 100", v)
	}
	// And the monitor reacts: alarm output goes true at its next deadline.
	b.RunFor(20_000_000)
	alarm, err := b.ReadOutput("monitor", "alarm")
	if err != nil {
		t.Fatal(err)
	}
	if !alarm.Bool() {
		t.Error("monitor alarm never rose")
	}
}

func TestRemoteInstructionsPauseResumeReadWrite(t *testing.T) {
	b := heatingBoard(t, codegen.Instrument{StateEnter: true}, Config{Baud: 1_000_000})
	host := b.HostPort()
	sendIn := func(in protocol.Instruction) {
		wire, err := protocol.EncodeInstruction(in)
		if err != nil {
			t.Fatal(err)
		}
		host.Send(wire)
	}
	b.RunFor(5_000_000)

	sendIn(protocol.Instruction{Type: protocol.InPause, Seq: 1})
	for i := 0; i < 10 && !b.Halted(); i++ {
		b.RunFor(1_000_000)
	}
	if !b.Halted() {
		t.Fatal("remote pause not serviced")
	}

	sendIn(protocol.Instruction{Type: protocol.InReadVar, Seq: 2, Source: "heater.thermostat.__state"})
	sendIn(protocol.Instruction{Type: protocol.InWriteVar, Seq: 3, Source: "heater.temp__io", Value: 42})
	sendIn(protocol.Instruction{Type: protocol.InResume, Seq: 4})
	var dec protocol.Decoder
	var got []protocol.Event
	for i := 0; i < 20; i++ {
		b.RunFor(1_000_000)
		evs, _ := dec.Feed(host.Recv())
		got = append(got, evs...)
	}
	if b.Halted() {
		t.Fatal("remote resume not serviced")
	}
	var sawHalted, sawResumed, sawRead bool
	for _, ev := range got {
		switch ev.Type {
		case protocol.EvHalted:
			sawHalted = true
		case protocol.EvResumed:
			sawResumed = true
		case protocol.EvWatch:
			if ev.Source == "heater.thermostat.__state" {
				sawRead = true
			}
		}
	}
	if !sawHalted || !sawResumed || !sawRead {
		t.Errorf("acks missing: halted=%v resumed=%v read=%v in %v", sawHalted, sawResumed, sawRead, got)
	}
	// The remote write landed in RAM.
	idx, _ := b.Prog.Symbols.Index("heater.temp__io")
	v, err := b.LoadSym(idx)
	if err != nil {
		t.Fatal(err)
	}
	// PreLatch overwrites temp at each release after resume, so just check
	// the symbol is a valid float (the write path was already acked above).
	if v.Kind() != value.Float {
		t.Errorf("temp symbol kind %v", v.Kind())
	}
}

func TestBoardStatusReport(t *testing.T) {
	b := heatingBoard(t, fullInstrument, Config{})
	b.RunFor(50_000_000)
	s := b.String()
	for _, want := range []string{"board main", "cycles"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	var sb strings.Builder
	if _, err := b.WriteString(&sb); err != nil {
		t.Fatal(err)
	}
	rep := sb.String()
	for _, want := range []string{"uart", "ram", "task heater", "task monitor"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestCPUSpeedDrivesDeadlineMisses(t *testing.T) {
	// A 2 GHz core (does not divide 1e9 evenly) finishes well inside the
	// 5 ms deadline; a 10 kHz core cannot and must record misses.
	fast := heatingBoard(t, codegen.Instrument{}, Config{CPUHz: 2_000_000_000})
	fast.RunFor(100_000_000)
	if fast.DeadlineMisses() != 0 {
		t.Errorf("2 GHz core missed %d deadlines", fast.DeadlineMisses())
	}
	slow := heatingBoard(t, codegen.Instrument{}, Config{CPUHz: 10_000})
	slow.RunFor(100_000_000)
	if slow.DeadlineMisses() == 0 {
		t.Error("10 kHz core missed no deadlines")
	}
}

func TestNewBoardValidation(t *testing.T) {
	if _, err := NewBoard("x", nil, Config{}, nil); err == nil {
		t.Error("nil program accepted")
	}
	sys, err := models.Heating(models.HeatingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := codegen.Compile(sys, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBoard("x", prog, Config{Baud: -1}, nil); err == nil {
		t.Error("negative baud accepted")
	}
	b, err := NewBoard("x", prog, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.Link.Baud() != DefaultBaud {
		t.Errorf("default baud = %d", b.Link.Baud())
	}
	if _, err := NewBoard(strings.Repeat("n", protocol.MaxField), prog, Config{}, nil); err != nil {
		t.Errorf("%d-byte name rejected: %v", protocol.MaxField, err)
	}
}

// TestOverlongBoardNameRejectedUpFront: a board name longer than a frame
// field fails in NewBoard. Before the check, the name surfaced only when
// the first frame failed to encode — and the overrun reporter, which skips
// the encode when the FIFO is too full for the frame, could hide it.
func TestOverlongBoardNameRejectedUpFront(t *testing.T) {
	sys, err := models.TokenRing(4)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := codegen.Compile(sys, codegen.Options{Instrument: fullInstrument})
	if err != nil {
		t.Fatal(err)
	}
	name := strings.Repeat("n", protocol.MaxField+1)
	_, err = NewBoard(name, prog, Config{Bindings: sys.Bindings}, nil)
	if err == nil || !strings.Contains(err.Error(), "256 bytes") {
		t.Fatalf("NewBoard with a %d-byte name: err = %v, want a name-length error", len(name), err)
	}
}

// TestSaturationReportsDropCounter: when the frame-atomic TX policy drops
// whole frames on FIFO saturation, the firmware reports the cumulative
// drop counter host-side with an EvOverrun event as soon as the line has
// room — E7b's delivered/emitted gap becomes observable on the wire.
func TestSaturationReportsDropCounter(t *testing.T) {
	b := heatingBoard(t, fullInstrument, Config{Baud: 9600})
	var dec protocol.Decoder
	var overruns []protocol.Event
	for i := 0; i < 6000; i++ {
		b.RunFor(1_000_000)
		evs, _ := dec.Feed(b.HostPort().Recv())
		for _, ev := range evs {
			if ev.Type == protocol.EvOverrun {
				overruns = append(overruns, ev)
			}
		}
	}
	st := b.Link.PortA().Stats()
	if st.FramesDropped == 0 {
		t.Fatal("9600 baud under full instrumentation never saturated")
	}
	if st.Dropped == 0 || st.Dropped%uint64(1) != 0 {
		t.Fatalf("byte drop stats inconsistent: %+v", st)
	}
	if len(overruns) == 0 {
		t.Fatal("no EvOverrun report reached the host")
	}
	last := overruns[len(overruns)-1]
	if last.Source != "main" || last.Arg1 != "frames" {
		t.Errorf("overrun event fields = %+v", last)
	}
	if uint64(last.Value) == 0 || uint64(last.Value) > st.FramesDropped {
		t.Errorf("reported %g dropped frames, stats say %d", last.Value, st.FramesDropped)
	}
	// Monotone cumulative counter.
	for i := 1; i < len(overruns); i++ {
		if overruns[i].Value < overruns[i-1].Value {
			t.Fatalf("drop counter went backwards: %g -> %g", overruns[i-1].Value, overruns[i].Value)
		}
	}
}
