// Package serial models the RS-232 link used by the paper's prototype as
// its *active* command interface: the instrumented code on the target
// writes command frames into its UART, which the Graphical Debugger Model
// host reads at the other end.
//
// The model is a full-duplex 8N1 UART pair driven by virtual time: each
// byte occupies the line for 10 bit times (start + 8 data + stop) at the
// configured baud rate, and consecutive bytes queue behind each other.
// This pacing is what makes the paper's overhead argument measurable —
// an instrumented target both spends CPU cycles building frames and is
// throttled by the line rate, whereas the passive JTAG solution touches
// neither (see internal/jtag).
//
// Each direction queues its bytes in flight as a plain byte buffer plus
// a list of runs. A run is a stretch of consecutive queued bytes whose
// arrivals are one byte time apart: it is stored as its length and the
// arrival of its first byte. A send that starts the instant the previous
// run's last byte lands extends that run, so a saturated line is one run
// however many frames it holds, and the queue costs one byte of memory
// per byte in flight. The portable form (LinkState, see state.go) still
// lists every byte with its own arrival instant; Snapshot expands the
// runs and Restore regroups them, so checkpoints are unaffected by this
// representation.
package serial

import "fmt"

// bitsPerByte is start + 8 data + stop for the 8N1 format.
const bitsPerByte = 10

// Stats accumulates per-direction line statistics.
type Stats struct {
	Bytes    uint64 // bytes fully delivered
	BusyNs   uint64 // total line-busy time
	Dropped  uint64 // bytes dropped on overflow (whole rejected sends)
	Overruns uint64 // occasions the sender found the queue full

	// FramesDropped counts whole Send calls rejected by the frame-atomic
	// enqueue policy: a frame either fits in the FIFO entirely or is
	// dropped entirely, so the wire never carries a torn frame. The
	// target reports the counter host-side via an EvOverrun event,
	// making E7b's delivered/emitted gap observable on the wire.
	FramesDropped uint64
}

// Link is a point-to-point full-duplex serial line between port A (target)
// and port B (host).
type Link struct {
	baud       int
	byteTimeNs uint64
	now        uint64
	limit      int // max in-flight bytes per direction

	dirs [2]direction
}

// run is n consecutive queued bytes arriving one byte time apart, the
// first of them at instant first.
type run struct {
	n     int
	first uint64
}

type direction struct {
	buf      []byte // buf[head:] are the bytes in flight, oldest first
	head     int    // delivered prefix of buf, reclaimed when buf is full
	runs     []run  // buf[head:] grouped into runs, oldest first
	rx       []byte
	lineFree uint64 // time the line becomes free for the next byte
	stats    Stats
}

// NewLink creates a link at the given baud rate (e.g. 115200). The
// in-flight queue per direction holds up to 4096 bytes; senders beyond
// that drop bytes and record overruns, mimicking a saturated UART FIFO.
func NewLink(baud int) (*Link, error) {
	if baud <= 0 {
		return nil, fmt.Errorf("serial: invalid baud %d", baud)
	}
	return &Link{
		baud:       baud,
		byteTimeNs: uint64(bitsPerByte * 1_000_000_000 / baud),
		limit:      4096,
	}, nil
}

// MustLink is NewLink that panics; for fixtures.
func MustLink(baud int) *Link {
	l, err := NewLink(baud)
	if err != nil {
		panic(err)
	}
	return l
}

// Baud returns the configured line rate.
func (l *Link) Baud() int { return l.baud }

// ByteTimeNs returns the virtual time one byte occupies the line.
func (l *Link) ByteTimeNs() uint64 { return l.byteTimeNs }

// Now returns the link's current virtual time.
func (l *Link) Now() uint64 { return l.now }

// Advance moves virtual time forward and delivers bytes whose transmission
// completes by then. Time never moves backwards.
func (l *Link) Advance(now uint64) {
	if now < l.now {
		return
	}
	l.now = now
	for d := range l.dirs {
		l.dirs[d].deliver(now, l.byteTimeNs)
	}
}

// deliver moves the queued bytes that have arrived by now into rx. It
// stops at the first byte still on the wire, which may be inside a run.
func (dir *direction) deliver(now, byteTimeNs uint64) {
	n, done := 0, 0
	for ; done < len(dir.runs); done++ {
		r := &dir.runs[done]
		if r.first > now {
			break
		}
		if last := r.first + uint64(r.n-1)*byteTimeNs; last > now {
			// Partly arrived: byteTimeNs > 0 here, since last > first.
			k := int((now-r.first)/byteTimeNs) + 1
			r.n -= k
			r.first += uint64(k) * byteTimeNs
			n += k
			break
		}
		n += r.n
	}
	if n == 0 {
		return
	}
	dir.rx = append(dir.rx, dir.buf[dir.head:dir.head+n]...)
	dir.stats.Bytes += uint64(n)
	dir.head += n
	if dir.head == len(dir.buf) {
		dir.buf, dir.head = dir.buf[:0], 0
	}
	dir.runs = dir.runs[:copy(dir.runs, dir.runs[done:])]
}

// queued is the number of bytes in flight.
func (dir *direction) queued() int { return len(dir.buf) - dir.head }

// send enqueues data in direction d at the current time. Enqueue is
// frame-atomic: one Send call is one frame, and a frame that does not fit
// in the remaining FIFO space is dropped whole (counted in Dropped,
// Overruns and FramesDropped) rather than torn mid-frame. A saturated
// link therefore loses complete frames — observable and countable — never
// a frame prefix that would poison the decoder's CRC.
func (l *Link) send(d int, data []byte) {
	if len(data) == 0 {
		return
	}
	dir := &l.dirs[d]
	if dir.queued()+len(data) > l.limit {
		dir.stats.Dropped += uint64(len(data))
		dir.stats.Overruns++
		dir.stats.FramesDropped++
		return
	}
	start := max(dir.lineFree, l.now)
	dir.push(data, start+l.byteTimeNs, l.byteTimeNs)
	busy := uint64(len(data)) * l.byteTimeNs
	dir.lineFree = start + busy
	dir.stats.BusyNs += busy
}

// push queues data as back-to-back bytes, the first arriving at first,
// extending the last run when data continues it without a gap. The
// first >= r.first guard keeps a run from wrapping past the end of the
// clock, which only a hand-built restored state can reach.
func (dir *direction) push(data []byte, first, byteTimeNs uint64) {
	if len(dir.buf)+len(data) > cap(dir.buf) && dir.head >= dir.queued() {
		// Reclaim the delivered prefix instead of growing the buffer once
		// it is at least half of it; otherwise append grows the buffer, so
		// a byte is moved at most once per byte delivered.
		dir.buf, dir.head = dir.buf[:copy(dir.buf, dir.buf[dir.head:])], 0
	}
	dir.buf = append(dir.buf, data...)
	if k := len(dir.runs) - 1; k >= 0 {
		if r := &dir.runs[k]; r.first+uint64(r.n)*byteTimeNs == first && first >= r.first {
			r.n += len(data)
			return
		}
	}
	dir.runs = append(dir.runs, run{n: len(data), first: first})
}

// recv drains the received bytes for direction d.
func (l *Link) recv(d int) []byte {
	dir := &l.dirs[d]
	out := dir.rx
	dir.rx = nil
	return out
}

// busyUntil reports when direction d's line is free.
func (l *Link) busyUntil(d int) uint64 { return l.dirs[d].lineFree }

// free reports the remaining FIFO space in direction d.
func (l *Link) free(d int) int { return l.limit - l.dirs[d].queued() }

// Port is one endpoint of the link.
type Port struct {
	l   *Link
	out int // direction index this port transmits on
}

// PortA returns the target-side endpoint (transmits on direction 0).
func (l *Link) PortA() *Port { return &Port{l: l, out: 0} }

// PortB returns the host-side endpoint (transmits on direction 1).
func (l *Link) PortB() *Port { return &Port{l: l, out: 1} }

// Send queues data for transmission at the link's current virtual time.
func (p *Port) Send(data []byte) { p.l.send(p.out, data) }

// Recv returns the bytes that have fully arrived at this port.
func (p *Port) Recv() []byte { return p.l.recv(1 - p.out) }

// BusyUntil reports when this port's transmit line becomes free; the
// instrumented target uses it to account for stalls when its UART FIFO
// would block.
func (p *Port) BusyUntil() uint64 { return p.l.busyUntil(p.out) }

// Stats returns this port's transmit-direction statistics.
func (p *Port) Stats() Stats { return p.l.dirs[p.out].stats }

// Free reports the remaining transmit FIFO space in bytes; the firmware
// uses it to hold back its drop-counter report until it can actually fit
// on the wire.
func (p *Port) Free() int { return p.l.free(p.out) }
