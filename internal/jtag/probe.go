package jtag

import (
	"encoding/binary"
	"fmt"
	"maps"
	"sort"

	"repro/internal/protocol"
	"repro/internal/value"
)

// Probe is the host-side JTAG adapter (the USB/PCI dongle in the paper's
// Fig. 2). It drives the TAP — navigation one TCK at a time, scan data a
// register at a time through TAP.Shift — and accounts host-side time:
// every high-level operation costs one USB transaction latency plus the
// scan's TCK cycles. Target CPU time is never consumed — that asymmetry
// is the passive solution's selling point and experiment E7 measures it.
type Probe struct {
	tap *TAP

	// TransactionNs is the per-operation host latency (USB round trip).
	TransactionNs uint64
	// TCKHz is the scan clock; bits shifted cost 1e9/TCKHz ns each.
	TCKHz uint64

	hostNs uint64
	ops    uint64
}

// NewProbe wraps a TAP with typical USB full-speed timing: 125 µs
// transaction latency and a 10 MHz TCK.
func NewProbe(tap *TAP) *Probe {
	return &Probe{tap: tap, TransactionNs: 125_000, TCKHz: 10_000_000}
}

// HostTimeNs reports the accumulated host-side time spent driving scans.
func (p *Probe) HostTimeNs() uint64 { return p.hostNs }

// Ops reports the number of probe transactions performed.
func (p *Probe) Ops() uint64 { return p.ops }

func (p *Probe) account(bits int) {
	p.ops++
	p.hostNs += p.TransactionNs + uint64(bits)*1_000_000_000/p.TCKHz
}

// Reset forces Test-Logic-Reset (five TMS=1 clocks) and returns to
// Run-Test/Idle.
func (p *Probe) Reset() {
	for i := 0; i < 5; i++ {
		p.tap.Clock(true, false)
	}
	p.tap.Clock(false, false)
	p.account(6)
}

// navigate clocks a TMS sequence (TDI low).
func (p *Probe) navigate(tms ...bool) {
	for _, m := range tms {
		p.tap.Clock(m, false)
	}
}

// WriteIR shifts a new instruction into the IR from Run-Test/Idle.
func (p *Probe) WriteIR(ir uint8) {
	// RTI -> Select-DR -> Select-IR -> Capture-IR -> Shift-IR
	p.navigate(true, true, false, false)
	p.tap.Shift(uint64(ir), irLen, true) // exit on final bit
	// Exit1-IR -> Update-IR -> RTI
	p.navigate(true, false)
	p.account(4 + irLen + 2)
}

// scanDR shifts n bits (at most 64) through the current DR from
// Run-Test/Idle, returning the captured bits (LSB first).
func (p *Probe) scanDR(out uint64, n int) uint64 {
	p.captureDR(n)
	in := p.tap.Shift(out, n, true)
	p.endDR(n)
	return in
}

// captureDR clocks Run-Test/Idle -> Select-DR -> Capture-DR and on into
// Shift-DR, or straight to Exit1-DR for a zero-bit scan, which must not
// stop in Shift-DR with no bit left to take the exit clock.
func (p *Probe) captureDR(n int) { p.navigate(true, false, n == 0) }

// endDR clocks Exit1-DR -> Update-DR -> Run-Test/Idle and accounts the
// whole n-bit scan.
func (p *Probe) endDR(n int) {
	p.navigate(true, false)
	p.account(3 + n + 2)
}

// ReadIDCODE selects the IDCODE register and returns the device id.
func (p *Probe) ReadIDCODE() uint32 {
	p.WriteIR(IRIdcode)
	return uint32(p.scanDR(0, 32))
}

// setAddr latches the debug address register with the given flags.
func (p *Probe) setAddr(addr uint32, flags uint8) {
	p.WriteIR(IRDbgAddr)
	p.scanDR(uint64(flags)<<32|uint64(addr), 40)
}

// ReadWord reads the 8-byte word at addr through the debug port.
func (p *Probe) ReadWord(addr uint32) uint64 {
	p.setAddr(addr, 0)
	p.WriteIR(IRDbgData)
	return p.scanDR(0, 64)
}

// WriteWord writes the 8-byte word at addr through the debug port.
func (p *Probe) WriteWord(addr uint32, v uint64) {
	p.setAddr(addr, DbgFlagWrite)
	p.WriteIR(IRDbgData)
	p.scanDR(v, 64)
}

// ReadBytes reads n bytes starting at addr using auto-increment scans.
func (p *Probe) ReadBytes(addr uint32, n int) []byte {
	if n <= 0 {
		return nil
	}
	return p.readInto(make([]byte, 0, (n+7)/8*8), addr, n)
}

// readInto is ReadBytes (n > 0) into buf's storage, grown only if too
// small for n rounded up to whole words; it returns the n bytes read.
func (p *Probe) readInto(buf []byte, addr uint32, n int) []byte {
	p.setAddr(addr, DbgFlagAutoInc)
	p.WriteIR(IRDbgData)
	buf = buf[:0]
	for got := 0; got < n; got += 8 {
		buf = binary.LittleEndian.AppendUint64(buf, p.scanDR(0, 64))
	}
	return buf[:n]
}

// DrivePins forces pin levels through EXTEST (up to 64 pins).
func (p *Probe) DrivePins(levels []bool) {
	var packed uint64
	for i, l := range levels {
		if l && i < 64 {
			packed |= 1 << i
		}
	}
	p.WriteIR(IRExtest)
	p.scanDR(packed, len(levels))
}

// SamplePins captures the boundary-scan chain (pin levels).
func (p *Probe) SamplePins(n int) []bool {
	p.WriteIR(IRSample)
	p.captureDR(n)
	out := make([]bool, n)
	for i := range out {
		out[i] = p.tap.Clock(i == n-1, false)
	}
	p.endDR(n)
	return out
}

// Watch describes one monitored variable: the symbol the user selected in
// the paper's monitored-variable list, its RAM location and its kind.
type Watch struct {
	Symbol string
	Addr   uint32
	Size   int
	Kind   value.Kind
}

// Watcher polls watched variables over the probe and converts changes to
// protocol events — the passive command interface. It never touches the
// target CPU; only probe host time accumulates.
type Watcher struct {
	probe   *Probe
	watches []Watch
	last    map[string]value.Value
	seq     uint16
	buf     []byte // Poll's read buffer, reused across watches and polls
}

// NewWatcher creates an empty watcher over probe.
func NewWatcher(probe *Probe) *Watcher {
	return &Watcher{probe: probe, last: map[string]value.Value{}}
}

// Add registers a monitored variable.
func (w *Watcher) Add(watch Watch) error {
	if watch.Size != value.ByteSize(watch.Kind) || watch.Size == 0 {
		return fmt.Errorf("jtag: watch %s: size %d does not match kind %v", watch.Symbol, watch.Size, watch.Kind)
	}
	for _, ex := range w.watches {
		if ex.Symbol == watch.Symbol {
			return fmt.Errorf("jtag: duplicate watch %q", watch.Symbol)
		}
	}
	w.watches = append(w.watches, watch)
	return nil
}

// Watches returns the registered watches sorted by symbol.
func (w *Watcher) Watches() []Watch {
	out := append([]Watch(nil), w.watches...)
	sort.Slice(out, func(i, j int) bool { return out[i].Symbol < out[j].Symbol })
	return out
}

// WatcherState is the portable form of the watch engine's change-detection
// state: the per-symbol previous values and the event sequence counter.
// It is part of a session checkpoint because the cache is *history*, not
// something re-derivable from target RAM: a restored watcher rebuilt with
// an empty cache would re-announce every watch on its first poll (the
// baseline behaviour), and one keeping the live cache would diff the
// restored RAM against values from the abandoned future.
type WatcherState struct {
	Seq  uint16                   `json:"seq,omitempty"`
	Last map[string]value.Encoded `json:"last,omitempty"`
}

// Clone deep-copies the watcher state (previous-value map duplicated,
// nil-ness preserved).
func (st WatcherState) Clone() WatcherState {
	cp := st
	cp.Last = maps.Clone(st.Last)
	return cp
}

// Snapshot captures the watcher's change-detection state (deep-copied via
// the portable encoding).
func (w *Watcher) Snapshot() WatcherState {
	st := WatcherState{Seq: w.seq}
	if len(w.last) > 0 {
		st.Last = make(map[string]value.Encoded, len(w.last))
		for sym, v := range w.last {
			st.Last[sym] = value.Encode(v)
		}
	}
	return st
}

// Restore rewinds the watcher's change-detection state to a snapshot; the
// next Poll reports only symbols whose RAM value differs from the restored
// previous values — no spurious re-announcements.
func (w *Watcher) Restore(st WatcherState) error {
	last := make(map[string]value.Value, len(st.Last))
	for sym, enc := range st.Last {
		v, err := value.Decode(enc)
		if err != nil {
			return fmt.Errorf("jtag: restore watch %s: %w", sym, err)
		}
		last[sym] = v
	}
	w.last = last
	w.seq = st.Seq
	return nil
}

// Poll reads every watched variable once and returns an EvWatch event per
// changed value, stamped with the supplied target time. The first poll
// establishes baselines and reports every variable (so the GDM can render
// initial state).
func (w *Watcher) Poll(now uint64) []protocol.Event {
	var evs []protocol.Event
	for _, watch := range w.watches {
		w.buf = w.probe.readInto(w.buf, watch.Addr, watch.Size)
		v, err := value.DecodeBytes(watch.Kind, w.buf)
		if err != nil {
			continue
		}
		prev, seen := w.last[watch.Symbol]
		if seen && value.Equal(prev, v) {
			continue
		}
		w.last[watch.Symbol] = v
		old := ""
		if seen {
			old = prev.String()
		}
		w.seq++
		evs = append(evs, protocol.Event{
			Type:   protocol.EvWatch,
			Seq:    w.seq,
			Time:   now,
			Source: watch.Symbol,
			Arg1:   old,
			Arg2:   v.String(),
			Value:  v.Float(),
		})
	}
	return evs
}
