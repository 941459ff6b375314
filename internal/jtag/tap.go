// Package jtag simulates the IEEE 1149.1 (JTAG) debug infrastructure the
// paper proposes as its *passive* command interface. The paper's argument:
// with JTAG "real-time information/data is in fact extracted passively ...
// a command interface is established without any code modifications",
// eliminating the overhead of the active (instrumented) solution.
//
// The package provides three layers:
//
//   - TAP: a 16-state Test Access Port controller, bit-accurate in its
//     semantics, with IR/DR scan chains, the standard BYPASS / IDCODE /
//     SAMPLE / EXTEST instructions, a boundary-scan register over the
//     board's pins, and a vendor DEBUG extension (address + data
//     registers) giving the probe direct RAM access — the mechanism real
//     on-chip debug units (e.g. ARM EmbeddedICE) expose. Clock is one TCK
//     edge; Shift is the exact equivalent of n Clock calls inside a shift
//     state, computed per scan rather than per bit, so the simulated probe
//     pays per transaction while TDO, register contents, TCKCount and
//     landing state stay what bit stepping would produce.
//   - Probe: the host-side USB/PCI adapter that drives TCK/TMS/TDI and
//     accounts for host-side transaction latency. Crucially, none of its
//     operations consume target CPU cycles.
//   - Watcher: the monitoring engine of the paper's Fig. 2: the user
//     selects monitored variables ("variable s is critical if it saves
//     state information"), the watcher polls them over the probe, and
//     value changes become protocol events for the GDM.
package jtag

import (
	"encoding/binary"
	"fmt"
)

// State is a TAP controller state (IEEE 1149.1 figure 6-1).
type State uint8

// The sixteen TAP states.
const (
	TestLogicReset State = iota
	RunTestIdle
	SelectDRScan
	CaptureDR
	ShiftDR
	Exit1DR
	PauseDR
	Exit2DR
	UpdateDR
	SelectIRScan
	CaptureIR
	ShiftIR
	Exit1IR
	PauseIR
	Exit2IR
	UpdateIR
)

var stateNames = [...]string{
	"Test-Logic-Reset", "Run-Test/Idle", "Select-DR-Scan", "Capture-DR",
	"Shift-DR", "Exit1-DR", "Pause-DR", "Exit2-DR", "Update-DR",
	"Select-IR-Scan", "Capture-IR", "Shift-IR", "Exit1-IR", "Pause-IR",
	"Exit2-IR", "Update-IR",
}

// String returns the standard state name.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", s)
}

// Next returns the successor state for one TCK rising edge with the given
// TMS level — the standard IEEE 1149.1 state table.
func (s State) Next(tms bool) State {
	if tms {
		switch s {
		case TestLogicReset:
			return TestLogicReset
		case RunTestIdle, UpdateDR, UpdateIR:
			return SelectDRScan
		case SelectDRScan:
			return SelectIRScan
		case CaptureDR, ShiftDR:
			return Exit1DR
		case Exit1DR, Exit2DR:
			return UpdateDR
		case PauseDR:
			return Exit2DR
		case SelectIRScan:
			return TestLogicReset
		case CaptureIR, ShiftIR:
			return Exit1IR
		case Exit1IR, Exit2IR:
			return UpdateIR
		case PauseIR:
			return Exit2IR
		}
	}
	switch s {
	case TestLogicReset, RunTestIdle, UpdateDR, UpdateIR:
		return RunTestIdle
	case SelectDRScan:
		return CaptureDR
	case CaptureDR, ShiftDR, Exit2DR:
		return ShiftDR
	case Exit1DR, PauseDR:
		return PauseDR
	case SelectIRScan:
		return CaptureIR
	case CaptureIR, ShiftIR, Exit2IR:
		return ShiftIR
	case Exit1IR, PauseIR:
		return PauseIR
	}
	return TestLogicReset
}

// nextTab is State.Next tabulated, indexed [state][tms]: Clock's
// transition is one load instead of a walk through Next's switch.
var nextTab = func() (tab [16][2]State) {
	for s := range tab {
		tab[s][0] = State(s).Next(false)
		tab[s][1] = State(s).Next(true)
	}
	return tab
}()

// Instruction register encodings (4-bit IR).
const (
	IRExtest  uint8 = 0x0
	IRIdcode  uint8 = 0x1
	IRSample  uint8 = 0x2
	IRDbgAddr uint8 = 0x8 // vendor: debug address/control register
	IRDbgData uint8 = 0x9 // vendor: debug data register
	IRBypass  uint8 = 0xF

	irLen = 4
)

// Debug address register flags (low bits of the 40-bit DBGADDR register:
// 32 address bits + 8 flag bits above them).
const (
	DbgFlagWrite   = 1 << 0 // UpdateDR writes the data register to memory
	DbgFlagAutoInc = 1 << 1 // address advances by 8 after each data access
)

// Memory is the TAP's view of target RAM. The board wires its RAM here;
// accesses cost zero target cycles (hardware debug port semantics).
type Memory interface {
	ReadMem(addr uint32, p []byte)
	WriteMem(addr uint32, p []byte)
}

// Pins abstracts the boundary-scan chain: Sample returns current pin
// levels; Drive forces them (EXTEST).
type Pins interface {
	Sample() []bool
	Drive(levels []bool)
}

// TAP is the on-chip test access port.
type TAP struct {
	state State
	ir    uint8
	irSh  uint8

	idcode uint32

	// dr holds the active data register during Shift-DR; its width depends
	// on the current instruction. Registers wider than 64 bits (boundary
	// scan) use drBits.
	dr     uint64
	drLen  int
	drBits []bool // boundary register image when IR is SAMPLE/EXTEST

	dbgAddr  uint32
	dbgFlags uint8

	// xfer is the DBGDATA transfer buffer handed to Memory; owning it
	// keeps data-register accesses off the heap.
	xfer [8]byte

	mem  Memory
	pins Pins

	// TCKCount tallies clock cycles for probe-side time accounting.
	TCKCount uint64
}

// NewTAP creates a TAP with the given IDCODE, RAM port and boundary pins
// (pins may be nil when the board exposes none).
func NewTAP(idcode uint32, mem Memory, pins Pins) *TAP {
	return &TAP{state: TestLogicReset, ir: IRIdcode, idcode: idcode, mem: mem, pins: pins}
}

// StateName returns the current controller state.
func (t *TAP) State() State { return t.state }

// IR returns the current instruction.
func (t *TAP) IR() uint8 { return t.ir }

// DbgAddr returns the latched debug address (for tests/diagnostics).
func (t *TAP) DbgAddr() uint32 { return t.dbgAddr }

// Clock advances the TAP by one TCK rising edge, sampling TMS and TDI, and
// returns TDO. Shifting happens while in a Shift state (the clock that
// exits the state with TMS=1 still shifts the final bit, matching how
// probes stream scans).
func (t *TAP) Clock(tms, tdi bool) bool {
	tdo := false
	switch t.state {
	case ShiftIR:
		tdo = t.irSh&1 != 0
		t.irSh >>= 1
		if tdi {
			t.irSh |= 1 << (irLen - 1)
		}
	case ShiftDR:
		if t.usesBoundary() {
			if len(t.drBits) > 0 {
				tdo = t.drBits[0]
				copy(t.drBits, t.drBits[1:])
				t.drBits[len(t.drBits)-1] = tdi
			}
		} else {
			tdo = t.dr&1 != 0
			t.dr >>= 1
			if tdi {
				t.dr |= 1 << (t.drLen - 1)
			}
		}
	}

	next := nextTab[t.state][b2i(tms)]
	// Entry actions.
	switch next {
	case TestLogicReset:
		t.ir = IRIdcode // reset selects IDCODE per the standard
	case CaptureIR:
		t.irSh = 0b0001 // fixed capture pattern, LSBs "01"
	case CaptureDR:
		t.captureDR()
	case UpdateIR:
		t.ir = t.irSh & (1<<irLen - 1)
	case UpdateDR:
		t.updateDR()
	}
	t.state = next
	t.TCKCount++
	return tdo
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Shift clocks n TCK edges in Shift-DR or Shift-IR and returns the TDO
// bits, LSB first. It is exactly n Clock calls: TDI comes from out LSB
// first, TMS is 1 only on the last edge and only when exit is set, and
// the register contents, TCKCount and landing state (Exit1-xR on exit,
// which has no entry action) all match bit stepping. A register of width
// L shifting n bits is one 128-bit combine-and-split: the register
// concatenated below the input stream, TDO the low n bits of that, the
// register the next L — so n > L (BYPASS delaying by one bit) needs no
// special case. Boundary registers (SAMPLE/EXTEST), calls outside a
// shift state and n > 64 step Clock instead.
func (t *TAP) Shift(out uint64, n int, exit bool) uint64 {
	var reg uint64
	var width int
	switch {
	case n <= 0:
		return 0
	case n <= 64 && t.state == ShiftIR:
		reg, width = uint64(t.irSh), irLen
	case n <= 64 && t.state == ShiftDR && !t.usesBoundary():
		reg, width = t.dr, t.drLen
	default:
		return t.stepShift(out, n, exit)
	}
	// 128-bit stream hi:lo = out<<width | reg.
	lo := reg | out<<width
	hi := out >> (64 - width)
	tdo, rest := lo, hi
	if n < 64 {
		tdo &= 1<<n - 1
		rest = lo>>n | hi<<(64-n)
	}
	rest &= 1<<width - 1
	if t.state == ShiftIR {
		t.irSh = uint8(rest)
	} else {
		t.dr = rest
	}
	if exit {
		t.state = nextTab[t.state][1]
	}
	t.TCKCount += uint64(n)
	return tdo
}

// stepShift is Shift by bit stepping: the definition Shift must match.
func (t *TAP) stepShift(out uint64, n int, exit bool) uint64 {
	var in uint64
	for i := 0; i < n; i++ {
		if t.Clock(exit && i == n-1, out>>i&1 != 0) {
			in |= 1 << i
		}
	}
	return in
}

func (t *TAP) usesBoundary() bool { return t.ir == IRSample || t.ir == IRExtest }

func (t *TAP) captureDR() {
	switch t.ir {
	case IRIdcode:
		t.dr = uint64(t.idcode)
		t.drLen = 32
	case IRBypass:
		t.dr = 0
		t.drLen = 1
	case IRDbgAddr:
		t.dr = uint64(t.dbgFlags)<<32 | uint64(t.dbgAddr)
		t.drLen = 40
	case IRDbgData:
		t.xfer = [8]byte{}
		if t.mem != nil {
			t.mem.ReadMem(t.dbgAddr, t.xfer[:])
		}
		t.dr = binary.LittleEndian.Uint64(t.xfer[:])
		t.drLen = 64
	case IRSample, IRExtest:
		if t.pins != nil {
			t.drBits = append(t.drBits[:0], t.pins.Sample()...)
		} else {
			t.drBits = t.drBits[:0]
		}
	default:
		// Unknown instructions behave as BYPASS per the standard.
		t.dr = 0
		t.drLen = 1
	}
}

func (t *TAP) updateDR() {
	switch t.ir {
	case IRDbgAddr:
		t.dbgAddr = uint32(t.dr)
		t.dbgFlags = uint8(t.dr >> 32)
	case IRDbgData:
		if t.mem != nil && t.dbgFlags&DbgFlagWrite != 0 {
			binary.LittleEndian.PutUint64(t.xfer[:], t.dr)
			t.mem.WriteMem(t.dbgAddr, t.xfer[:])
		}
		if t.dbgFlags&DbgFlagAutoInc != 0 {
			t.dbgAddr += 8
		}
	case IRExtest:
		if t.pins != nil {
			t.pins.Drive(append([]bool(nil), t.drBits...))
		}
	}
}
