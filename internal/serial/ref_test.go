package serial

// Differential test of the run-length queue against a per-byte reference
// link: the straightforward model that queues every byte with its own
// arrival instant. Both are driven through the same random sequences of
// sends, advances, snapshots and restores, and must agree on every
// delivered byte, every statistic and every marshalled snapshot.

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// refLink is the per-byte reference model of Link.
type refLink struct {
	baud       int
	byteTimeNs uint64
	now        uint64
	limit      int
	dirs       [2]refDirection
}

type refDirection struct {
	queue    []InflightState
	rx       []byte
	lineFree uint64
	stats    Stats
}

func newRefLink(baud int) *refLink {
	l := MustLink(baud)
	return &refLink{baud: baud, byteTimeNs: l.byteTimeNs, limit: l.limit}
}

func (l *refLink) advance(now uint64) {
	if now < l.now {
		return
	}
	l.now = now
	for d := range l.dirs {
		dir := &l.dirs[d]
		i := 0
		for ; i < len(dir.queue) && dir.queue[i].Arrival <= now; i++ {
			dir.rx = append(dir.rx, dir.queue[i].B)
			dir.stats.Bytes++
		}
		dir.queue = dir.queue[i:]
	}
}

func (l *refLink) send(d int, data []byte) {
	if len(data) == 0 {
		return
	}
	dir := &l.dirs[d]
	if len(dir.queue)+len(data) > l.limit {
		dir.stats.Dropped += uint64(len(data))
		dir.stats.Overruns++
		dir.stats.FramesDropped++
		return
	}
	for _, b := range data {
		start := max(dir.lineFree, l.now)
		arrival := start + l.byteTimeNs
		dir.lineFree = arrival
		dir.stats.BusyNs += l.byteTimeNs
		dir.queue = append(dir.queue, InflightState{B: b, Arrival: arrival})
	}
}

func (l *refLink) recv(d int) []byte {
	out := l.dirs[d].rx
	l.dirs[d].rx = nil
	return out
}

func (l *refLink) snapshot() LinkState {
	st := LinkState{Baud: l.baud, Now: l.now}
	for d, dir := range l.dirs {
		st.Dirs[d] = DirectionState{LineFree: dir.lineFree, Stats: dir.stats}
		if len(dir.queue) > 0 {
			st.Dirs[d].Queue = slices.Clone(dir.queue)
		}
		if len(dir.rx) > 0 {
			st.Dirs[d].Rx = slices.Clone(dir.rx)
		}
	}
	return st
}

func (l *refLink) restore(st LinkState) {
	l.now = st.Now
	for d, ds := range st.Dirs {
		l.dirs[d] = refDirection{
			queue:    slices.Clone(ds.Queue),
			rx:       slices.Clone(ds.Rx),
			lineFree: ds.LineFree,
			stats:    ds.Stats,
		}
	}
}

// pair drives a Link and its reference in lockstep.
type pair struct {
	t   *testing.T
	l   *Link
	ref *refLink
}

func newPair(t *testing.T, baud int) *pair {
	return &pair{t: t, l: MustLink(baud), ref: newRefLink(baud)}
}

func (p *pair) send(d int, data []byte) {
	if d == 0 {
		p.l.PortA().Send(data)
	} else {
		p.l.PortB().Send(data)
	}
	p.ref.send(d, data)
	p.check("send")
}

func (p *pair) advance(now uint64) {
	p.t.Helper()
	p.l.Advance(now)
	p.ref.advance(now)
	// Port B receives direction 0, port A direction 1.
	for d, port := range []*Port{p.l.PortB(), p.l.PortA()} {
		got, want := port.Recv(), p.ref.recv(d)
		if !bytes.Equal(got, want) {
			p.t.Fatalf("at %d ns direction %d delivered %x, reference %x", now, d, got, want)
		}
	}
	p.check("advance")
}

// check compares everything observable without draining rx.
func (p *pair) check(after string) {
	p.t.Helper()
	for d, port := range []*Port{p.l.PortA(), p.l.PortB()} {
		ref := &p.ref.dirs[d]
		if port.Stats() != ref.stats {
			p.t.Fatalf("after %s direction %d stats %+v, reference %+v", after, d, port.Stats(), ref.stats)
		}
		if port.Free() != p.ref.limit-len(ref.queue) {
			p.t.Fatalf("after %s direction %d free %d, reference %d", after, d, port.Free(), p.ref.limit-len(ref.queue))
		}
		if port.BusyUntil() != ref.lineFree {
			p.t.Fatalf("after %s direction %d busy until %d, reference %d", after, d, port.BusyUntil(), ref.lineFree)
		}
	}
}

// snapshot asserts both links marshal to identical bytes and returns them.
func (p *pair) snapshot() []byte {
	p.t.Helper()
	got, err := json.Marshal(p.l.Snapshot())
	if err != nil {
		p.t.Fatal(err)
	}
	want, err := json.Marshal(p.ref.snapshot())
	if err != nil {
		p.t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		p.t.Fatalf("snapshot diverged:\n got %s\nwant %s", got, want)
	}
	return got
}

func (p *pair) restore(blob []byte) {
	p.t.Helper()
	var st LinkState
	if err := json.Unmarshal(blob, &st); err != nil {
		p.t.Fatal(err)
	}
	if err := p.l.Restore(st); err != nil {
		p.t.Fatal(err)
	}
	p.ref.restore(st)
	p.check("restore")
}

// TestLinkMatchesPerByteReference runs random operation sequences on
// both links. Frame sizes overflow the 4 KiB FIFO on purpose, and the
// advance steps mix sub-byte ticks, exact byte boundaries and long idle
// gaps, so sends start both while the line is busy and after it has
// gone quiet.
func TestLinkMatchesPerByteReference(t *testing.T) {
	for _, baud := range []int{9600, 115200, 2_000_000, 20_000_000_000} {
		for seed := range uint64(4) {
			rng := rand.New(rand.NewPCG(seed, uint64(baud)))
			p := newPair(t, baud)
			bt := p.l.ByteTimeNs()
			var saved [][]byte
			now := uint64(0)
			for range 1500 {
				switch op := rng.IntN(40); {
				case op < 18:
					data := make([]byte, 1+rng.IntN(700))
					for i := range data {
						data[i] = byte(rng.Uint32())
					}
					p.send(rng.IntN(2), data)
				case op < 36:
					switch rng.IntN(4) {
					case 0:
						now += uint64(rng.IntN(3))
					case 1:
						now += uint64(rng.IntN(50)) * bt
					case 2:
						now += uint64(rng.IntN(50))*bt + uint64(rng.Int64N(int64(bt)+1))
					default:
						now += uint64(rng.IntN(10_000)) * bt
					}
					p.advance(now)
				case op < 38:
					saved = append(saved, p.snapshot())
				default:
					if len(saved) > 0 {
						p.restore(saved[rng.IntN(len(saved))])
						now = p.l.Now()
					}
				}
			}
			p.snapshot()
		}
	}
}

// TestRestoreNonArithmeticArrivals restores a hand-built state whose
// per-byte arrivals are neither evenly spaced nor monotonic, and run
// into the end of the clock, then checks delivery, snapshots and later
// sends against the reference.
func TestRestoreNonArithmeticArrivals(t *testing.T) {
	p := newPair(t, 1_000_000) // 10 µs per byte
	bt := p.l.ByteTimeNs()
	arrivals := []uint64{
		100, 100 + bt, 100 + 2*bt, // one run
		150,            // earlier than its predecessor
		150 + bt,       // continues the byte before it
		150 + 3*bt,     // a gap
		150 + 3*bt,     // a repeat
		90_000, 90_005, // closer than a byte time
		math.MaxUint64 - bt - 5, math.MaxUint64 - 5, // runs into the end of the clock
		bt - 6, // the wrapped successor, which must not join that run
	}
	st := LinkState{Baud: 1_000_000, Now: 50}
	st.Dirs[0].LineFree = arrivals[len(arrivals)-1]
	st.Dirs[1].LineFree = 40
	for i, at := range arrivals {
		st.Dirs[0].Queue = append(st.Dirs[0].Queue, InflightState{B: byte('a' + i), Arrival: at})
	}
	st.Dirs[0].Rx = []byte("zz")
	st.Dirs[0].Stats = Stats{Bytes: 7, BusyNs: 123}
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	p.restore(blob)
	if got := p.snapshot(); !bytes.Equal(got, blob) {
		t.Fatalf("restore+snapshot changed the state:\n got %s\nwant %s", got, blob)
	}
	for _, now := range []uint64{99, 100, 100 + bt/2, 149, 150 + bt, 150 + 3*bt, 89_999, 90_004, 90_005} {
		p.advance(now)
		p.snapshot()
	}
	p.send(0, []byte("late"))
	p.send(1, []byte("idle"))
	for _, now := range []uint64{math.MaxUint64 - bt - 6, math.MaxUint64 - bt, math.MaxUint64 - 5, math.MaxUint64} {
		p.advance(now)
		p.snapshot()
	}
}

// BenchmarkLinkSaturated keeps the 4 KiB transmit FIFO full at 115200
// baud: each op lets one 40-byte frame's worth of bytes land, drains
// them, queues a new frame into the freed space and has a second frame
// rejected as an overrun.
func BenchmarkLinkSaturated(b *testing.B) {
	l := MustLink(115200)
	a, host := l.PortA(), l.PortB()
	frame := bytes.Repeat([]byte{0x55}, 40)
	for a.Free() >= len(frame) {
		a.Send(frame)
	}
	step := uint64(len(frame)) * l.ByteTimeNs()
	now := uint64(0)
	b.ReportAllocs()
	for b.Loop() {
		now += step
		l.Advance(now)
		host.Recv()
		a.Send(frame)
		a.Send(frame)
	}
	if a.Stats().FramesDropped == 0 {
		b.Fatal("FIFO never overflowed")
	}
}
