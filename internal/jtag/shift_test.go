package jtag

import (
	"math/rand/v2"
	"testing"

	"repro/internal/value"
)

// shiftIRs are the instructions the differential tests cover: every
// assigned one (the boundary pair takes Shift's stepping fallback) plus an
// unassigned code that must behave as BYPASS.
var shiftIRs = []uint8{IRIdcode, IRBypass, IRDbgAddr, IRDbgData, IRSample, IRExtest, 0x7}

// cloneTAP copies t onto its own RAM and pins, so the copy and the
// original can be driven apart and compared.
func cloneTAP(t *TAP, ram *fakeRAM, pins *fakePins) (*TAP, *fakeRAM, *fakePins) {
	ram2 := *ram
	pins2 := &fakePins{levels: append([]bool(nil), pins.levels...), driven: append([]bool(nil), pins.driven...)}
	cp := *t
	cp.drBits = append([]bool(nil), t.drBits...)
	cp.mem, cp.pins = &ram2, pins2
	return &cp, &ram2, pins2
}

// stepClocks is the definition Shift is held to: n Clock calls, TDI from
// out LSB first, TMS high only on an exiting last edge.
func stepClocks(t *TAP, out uint64, n int, exit bool) uint64 {
	var tdo uint64
	for i := 0; i < n; i++ {
		if t.Clock(exit && i == n-1, out&(1<<i) != 0) {
			tdo |= 1 << i
		}
	}
	return tdo
}

func compareTAPs(t *testing.T, what string, fast, ref *TAP) {
	t.Helper()
	if fast.state != ref.state || fast.ir != ref.ir || fast.irSh != ref.irSh ||
		fast.dr != ref.dr || fast.drLen != ref.drLen || fast.TCKCount != ref.TCKCount {
		t.Fatalf("%s: Shift left state=%v ir=%#x irSh=%#x dr=%#x/%d tck=%d; Clock stepping state=%v ir=%#x irSh=%#x dr=%#x/%d tck=%d",
			what, fast.state, fast.ir, fast.irSh, fast.dr, fast.drLen, fast.TCKCount,
			ref.state, ref.ir, ref.irSh, ref.dr, ref.drLen, ref.TCKCount)
	}
	if len(fast.drBits) != len(ref.drBits) {
		t.Fatalf("%s: boundary register %v vs %v", what, fast.drBits, ref.drBits)
	}
	for i := range fast.drBits {
		if fast.drBits[i] != ref.drBits[i] {
			t.Fatalf("%s: boundary register %v vs %v", what, fast.drBits, ref.drBits)
		}
	}
}

// FuzzTAPShift holds Shift to bit-stepped Clock: from Shift-DR under every
// instruction (DBGDATA with and without the write and auto-increment
// flags) and from Shift-IR, for n from 1 to 64 and exit either way, a TAP
// and its copy must agree on TDO, state, IR and DR contents and TCKCount —
// and, after both clock on through Update, on the debug address, flags,
// RAM and driven pins.
func FuzzTAPShift(f *testing.F) {
	for _, ir := range shiftIRs {
		for _, n := range []uint8{1, 3, 4, 5, 31, 32, 33, 40, 41, 63, 64} {
			f.Add(ir, uint8(DbgFlagWrite|DbgFlagAutoInc), uint16(72), uint8(3), n, true, false, uint64(0xDEADBEEFCAFE0123))
			f.Add(ir, uint8(0), uint16(8), uint8(0), n, false, false, ^uint64(0))
		}
		f.Add(ir, uint8(DbgFlagWrite), uint16(4000), uint8(1), uint8(4), true, true, uint64(0b1001))
		f.Add(ir, uint8(DbgFlagAutoInc), uint16(16), uint8(2), uint8(9), false, true, uint64(0x155))
	}
	f.Fuzz(func(t *testing.T, irSel, flags uint8, addr uint16, pre, nSel uint8, exit, inIR bool, out uint64) {
		tap, ram, pins := newTestTAP()
		for i := range ram.data {
			ram.data[i] = byte(i*7 + 3)
		}
		p := NewProbe(tap)
		p.Reset()
		p.setAddr(uint32(addr), flags&(DbgFlagWrite|DbgFlagAutoInc))
		p.WriteIR(shiftIRs[int(irSel)%len(shiftIRs)])
		if inIR {
			p.navigate(true, true, false, false) // RTI -> Shift-IR
		} else {
			p.navigate(true, false, false) // RTI -> Shift-DR
		}
		// A few bits in first, so Shift starts from a register that is
		// part captured value, part shifted-in data.
		stepClocks(tap, out>>32, int(pre%8), false)

		ref, refRAM, refPins := cloneTAP(tap, ram, pins)
		n := int(nSel)%64 + 1
		got := tap.Shift(out, n, exit)
		want := stepClocks(ref, out, n, exit)
		if got != want {
			t.Fatalf("n=%d exit=%v: TDO %#x, want %#x", n, exit, got, want)
		}
		compareTAPs(t, "after shift", tap, ref)

		// On through Update-xR to Run-Test/Idle, identically on both.
		nav := []bool{true, false}
		if !exit {
			nav = []bool{true, true, false}
		}
		for _, tms := range nav {
			tap.Clock(tms, false)
			ref.Clock(tms, false)
		}
		compareTAPs(t, "after update", tap, ref)
		if tap.state != RunTestIdle {
			t.Fatalf("landed in %v", tap.state)
		}
		if tap.dbgAddr != ref.dbgAddr || tap.dbgFlags != ref.dbgFlags {
			t.Fatalf("debug address %#x/%#x, want %#x/%#x", tap.dbgAddr, tap.dbgFlags, ref.dbgAddr, ref.dbgFlags)
		}
		if ram.data != refRAM.data {
			t.Fatal("RAM differs after update")
		}
		if len(pins.driven) != len(refPins.driven) {
			t.Fatalf("driven pins %v, want %v", pins.driven, refPins.driven)
		}
		for i := range pins.driven {
			if pins.driven[i] != refPins.driven[i] {
				t.Fatalf("driven pins %v, want %v", pins.driven, refPins.driven)
			}
		}
	})
}

// refProbe is the probe as a bit-stepping reference: every scan bit is one
// Clock, with the same navigation and host-time accounting as Probe.
type refProbe struct {
	tap           *TAP
	hostNs, ops   uint64
	transactionNs uint64
	tckHz         uint64
}

func (r *refProbe) clocks(tms ...bool) {
	for _, m := range tms {
		r.tap.Clock(m, false)
	}
}

func (r *refProbe) account(bits int) {
	r.ops++
	r.hostNs += r.transactionNs + uint64(bits)*1_000_000_000/r.tckHz
}

func (r *refProbe) reset() {
	r.clocks(true, true, true, true, true, false)
	r.account(6)
}

func (r *refProbe) writeIR(ir uint8) {
	r.clocks(true, true, false, false)
	for i := 0; i < irLen; i++ {
		r.tap.Clock(i == irLen-1, ir&(1<<i) != 0)
	}
	r.clocks(true, false)
	r.account(4 + irLen + 2)
}

// scan shifts n bits from Run-Test/Idle; a zero-bit scan goes Capture-DR
// -> Exit1-DR -> Update-DR without entering Shift-DR.
func (r *refProbe) scan(out uint64, n int) []bool {
	if n == 0 {
		r.clocks(true, false, true)
	} else {
		r.clocks(true, false, false)
	}
	in := make([]bool, n)
	for i := range in {
		in[i] = r.tap.Clock(i == n-1, out&(1<<i) != 0)
	}
	r.clocks(true, false)
	r.account(3 + n + 2)
	return in
}

func (r *refProbe) scanWord(out uint64, n int) uint64 {
	var w uint64
	for i, b := range r.scan(out, n) {
		if b {
			w |= 1 << i
		}
	}
	return w
}

func (r *refProbe) readWord(addr uint32) uint64 {
	r.writeIR(IRDbgAddr)
	r.scanWord(uint64(addr), 40)
	r.writeIR(IRDbgData)
	return r.scanWord(0, 64)
}

func (r *refProbe) writeWord(addr uint32, v uint64) {
	r.writeIR(IRDbgAddr)
	r.scanWord(uint64(DbgFlagWrite)<<32|uint64(addr), 40)
	r.writeIR(IRDbgData)
	r.scanWord(v, 64)
}

func (r *refProbe) readBytes(addr uint32, n int) []byte {
	if n <= 0 {
		return nil
	}
	r.writeIR(IRDbgAddr)
	r.scanWord(uint64(DbgFlagAutoInc)<<32|uint64(addr), 40)
	r.writeIR(IRDbgData)
	var out []byte
	for len(out) < n {
		w := r.scanWord(0, 64)
		for i := 0; i < 8; i++ {
			out = append(out, byte(w>>(8*i)))
		}
	}
	return out[:n]
}

func (r *refProbe) readIDCODE() uint32 {
	r.writeIR(IRIdcode)
	return uint32(r.scanWord(0, 32))
}

func (r *refProbe) drivePins(levels []bool) {
	var packed uint64
	for i, l := range levels {
		if l && i < 64 {
			packed |= 1 << i
		}
	}
	r.writeIR(IRExtest)
	r.scan(packed, len(levels))
}

func (r *refProbe) samplePins(n int) []bool {
	r.writeIR(IRSample)
	return r.scan(0, n)
}

// TestProbeMatchesBitSteppingReference runs the same random operation
// sequences on the word-level probe and on the bit-stepping reference:
// results, RAM, driven pins, host time, op counts and TCK cycles agree
// after every operation, and every accounted TCK is one issued clock.
func TestProbeMatchesBitSteppingReference(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 2010))
		tap, ram, pins := newTestTAP()
		for i := range ram.data {
			ram.data[i] = byte(rng.Uint32())
		}
		refTAP, refRAM, refPins := cloneTAP(tap, ram, pins)
		p := NewProbe(tap)
		r := &refProbe{tap: refTAP, transactionNs: p.TransactionNs, tckHz: p.TCKHz}
		p.Reset()
		r.reset()
		addr := func() uint32 { return uint32(rng.IntN(len(ram.data) + 64)) } // some past the end
		for op := 0; op < 400; op++ {
			switch k := rng.IntN(6); k {
			case 0:
				a := addr()
				if got, want := p.ReadWord(a), r.readWord(a); got != want {
					t.Fatalf("seed %d op %d: ReadWord(%d) = %#x, want %#x", seed, op, a, got, want)
				}
			case 1:
				a, v := addr(), rng.Uint64()
				p.WriteWord(a, v)
				r.writeWord(a, v)
			case 2:
				a, n := addr(), rng.IntN(40)
				if got, want := p.ReadBytes(a, n), r.readBytes(a, n); string(got) != string(want) || (got == nil) != (want == nil) {
					t.Fatalf("seed %d op %d: ReadBytes(%d, %d) = % x, want % x", seed, op, a, n, got, want)
				}
			case 3:
				if got, want := p.ReadIDCODE(), r.readIDCODE(); got != want {
					t.Fatalf("seed %d op %d: IDCODE %#x, want %#x", seed, op, got, want)
				}
			case 4:
				n := rng.IntN(70)
				got, want := p.SamplePins(n), r.samplePins(n)
				if len(got) != len(want) {
					t.Fatalf("seed %d op %d: SamplePins(%d) = %v, want %v", seed, op, n, got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("seed %d op %d: SamplePins(%d) = %v, want %v", seed, op, n, got, want)
					}
				}
			case 5:
				var levels []bool
				for i, n := 0, rng.IntN(70); i < n; i++ {
					levels = append(levels, rng.IntN(2) == 1)
				}
				p.DrivePins(levels)
				r.drivePins(levels)
			}
			compareTAPs(t, "probe op", tap, refTAP)
			if tap.state != RunTestIdle || tap.dbgAddr != refTAP.dbgAddr || tap.dbgFlags != refTAP.dbgFlags {
				t.Fatalf("seed %d op %d: state %v addr %#x/%#x, want Run-Test/Idle %#x/%#x",
					seed, op, tap.state, tap.dbgAddr, tap.dbgFlags, refTAP.dbgAddr, refTAP.dbgFlags)
			}
			if ram.data != refRAM.data {
				t.Fatalf("seed %d op %d: RAM differs", seed, op)
			}
			if len(pins.driven) != len(refPins.driven) {
				t.Fatalf("seed %d op %d: driven %v, want %v", seed, op, pins.driven, refPins.driven)
			}
			if p.HostTimeNs() != r.hostNs || p.Ops() != r.ops {
				t.Fatalf("seed %d op %d: host %d ns / %d ops, want %d / %d", seed, op, p.HostTimeNs(), p.Ops(), r.hostNs, r.ops)
			}
			if want := p.Ops()*p.TransactionNs + tap.TCKCount*1_000_000_000/p.TCKHz; p.HostTimeNs() != want {
				t.Fatalf("seed %d op %d: host time %d ns does not account the %d clocks issued (%d ns)", seed, op, p.HostTimeNs(), tap.TCKCount, want)
			}
		}
	}
}

// TestZeroLengthScanReturnsToIdle: a zero-bit scan goes Capture-DR ->
// Exit1-DR -> Update-DR -> Run-Test/Idle. Stopping in Shift-DR with no bit
// to take the exit clock used to strand the TAP in Pause-DR, after which
// IDCODE read back as zero.
func TestZeroLengthScanReturnsToIdle(t *testing.T) {
	for _, tc := range []struct {
		name string
		scan func(p *Probe)
	}{
		{"DrivePins(nil)", func(p *Probe) { p.DrivePins(nil) }},
		{"SamplePins(0)", func(p *Probe) {
			if got := p.SamplePins(0); len(got) != 0 {
				t.Errorf("SamplePins(0) = %v", got)
			}
		}},
		{"scanDR(_, 0)", func(p *Probe) { p.WriteIR(IRBypass); p.scanDR(0, 0) }},
	} {
		tap, _, _ := newTestTAP()
		p := NewProbe(tap)
		p.Reset()
		tc.scan(p)
		if tap.State() != RunTestIdle {
			t.Errorf("%s: TAP left in %v, want Run-Test/Idle", tc.name, tap.State())
		}
		if want := p.Ops()*p.TransactionNs + tap.TCKCount*1_000_000_000/p.TCKHz; p.HostTimeNs() != want {
			t.Errorf("%s: accounted %d ns for %d clocks in %d ops (want %d)", tc.name, p.HostTimeNs(), tap.TCKCount, p.Ops(), want)
		}
		if got := p.ReadIDCODE(); got != 0x1234ABCD {
			t.Errorf("%s: next IDCODE = %#x, want 0x1234ABCD", tc.name, got)
		}
	}
}

// TestReadPastRAMEndReadsZero: bytes a Memory leaves untouched (past the
// end of RAM) read as zero, never as the previous access's data.
func TestReadPastRAMEndReadsZero(t *testing.T) {
	tap, ram, _ := newTestTAP()
	p := NewProbe(tap)
	p.Reset()
	end := uint32(len(ram.data))
	p.WriteWord(end-8, 0x1122334455667788)
	if got := p.ReadWord(end - 8); got != 0x1122334455667788 {
		t.Fatalf("last word = %#x", got)
	}
	if got := p.ReadWord(end - 4); got != 0x11223344 {
		t.Errorf("word straddling the end = %#x, want 0x11223344", got)
	}
	if got := p.ReadBytes(end, 3); string(got) != "\x00\x00\x00" {
		t.Errorf("bytes past the end = % x, want zeros", got)
	}
}

func TestWatcherStateClone(t *testing.T) {
	if cp := (WatcherState{Seq: 3}).Clone(); cp.Last != nil || cp.Seq != 3 {
		t.Errorf("nil Last cloned to %+v", cp)
	}
	if cp := (WatcherState{Last: map[string]value.Encoded{}}).Clone(); cp.Last == nil || len(cp.Last) != 0 {
		t.Errorf("empty Last cloned to %#v", cp.Last)
	}
	orig := WatcherState{Seq: 7, Last: map[string]value.Encoded{
		"a": value.Encode(value.I(1)),
		"b": value.Encode(value.F(2.5)),
	}}
	cp := orig.Clone()
	if cp.Seq != 7 || len(cp.Last) != 2 || cp.Last["a"] != orig.Last["a"] || cp.Last["b"] != orig.Last["b"] {
		t.Fatalf("clone %+v, want %+v", cp, orig)
	}
	cp.Seq = 8
	cp.Last["a"] = value.Encode(value.I(9))
	cp.Last["c"] = value.Encode(value.B(true))
	delete(cp.Last, "b")
	if orig.Seq != 7 || len(orig.Last) != 2 || orig.Last["a"] != value.Encode(value.I(1)) || orig.Last["b"] != value.Encode(value.F(2.5)) {
		t.Errorf("mutating the clone changed the original: %+v", orig)
	}
}

func BenchmarkProbeReadWord(b *testing.B) {
	tap, _, _ := newTestTAP()
	p := NewProbe(tap)
	p.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ReadWord(uint32(i%500) * 8)
	}
}

// BenchmarkWatcherPoll polls a heating-sized watch set (eight variables of
// every kind) whose values do not change: the steady state of a live
// passive session, expected at 0 allocs/op.
func BenchmarkWatcherPoll(b *testing.B) {
	tap, _, _ := newTestTAP()
	p := NewProbe(tap)
	p.Reset()
	w := NewWatcher(p)
	kinds := []value.Kind{value.Float, value.Bool, value.Int, value.Int, value.Int, value.Bool, value.Int, value.Int}
	for i, k := range kinds {
		if err := w.Add(Watch{Symbol: string(rune('a' + i)), Addr: uint32(i) * 8, Size: value.ByteSize(k), Kind: k}); err != nil {
			b.Fatal(err)
		}
	}
	w.Poll(0) // baselines
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if evs := w.Poll(uint64(i)); len(evs) != 0 {
			b.Fatalf("unchanged RAM reported %d events", len(evs))
		}
	}
}
