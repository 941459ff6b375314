package checkpoint

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/engine"
	"repro/internal/protocol"
	"repro/internal/serial"
	"repro/internal/target"
	"repro/internal/trace"
)

// The single-pass codec of the canonical serialized form. Encoding writes
// exactly the bytes json.Encoder.Encode writes for a *Checkpoint; decoding
// reads that exact form in one pass and hands anything else to
// encoding/json. Only the path from the root to the state that grows with
// the run — the serial in-flight queues and RX bytes, the trace records —
// is hand-written; every bounded leaf (scheduler, kernel, deframer, agent,
// bus, breakpoints, watcher, command channels) goes through encoding/json
// on its own span.

// Unmarshal parses a checkpoint's serialized form. The canonical form
// Marshal writes is read in one pass; any other input (whitespace, other
// key orders, unknown or case-folded keys, null, lone surrogates,
// malformed data) is decoded by encoding/json, so the accepted inputs, the
// values and the errors are exactly encoding/json's. Data after the
// checkpoint object is ignored, as json.Decoder ignores it.
func Unmarshal(raw []byte) (*Checkpoint, error) {
	d := decoder{b: raw, ok: true}
	c := d.checkpoint()
	if !d.ok {
		c = new(Checkpoint)
		if err := json.NewDecoder(bytes.NewReader(raw)).Decode(c); err != nil {
			return nil, fmt.Errorf("checkpoint: decode: %w", err)
		}
	}
	if c.Version != Version {
		return nil, fmt.Errorf("checkpoint: unsupported version %d (want %d)", c.Version, Version)
	}
	return c, nil
}

// encoder appends the canonical form to buf. It is an io.Writer so one
// json.Encoder appends the bounded leaves straight into buf.
type encoder struct {
	buf  []byte
	leaf *json.Encoder
	// bad is set by a value encoding/json refuses (a NaN or infinite
	// event value); the caller then reports encoding/json's own error.
	bad bool
}

var encoders = sync.Pool{New: func() any {
	e := new(encoder)
	e.leaf = json.NewEncoder(e)
	return e
}}

func (e *encoder) Write(p []byte) (int, error) {
	e.buf = append(e.buf, p...)
	return len(p), nil
}

// canonical calls fn with the checkpoint's canonical bytes, which stay
// valid only during the call.
func (c *Checkpoint) canonical(fn func([]byte) error) error {
	if c == nil {
		return fn([]byte("null\n"))
	}
	e := encoders.Get().(*encoder)
	defer encoders.Put(e)
	e.buf, e.bad = e.buf[:0], false
	e.checkpoint(c)
	if e.bad {
		// encoding/json reports the value it cannot encode.
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(c); err != nil {
			return err
		}
		return fn(buf.Bytes())
	}
	e.buf = append(e.buf, '\n')
	return fn(e.buf)
}

const hexDigits = "0123456789abcdef"

// appendString appends s as encoding/json does: HTML-safe escapes,
// invalid UTF-8 replaced by \ufffd, U+2028 and U+2029 escaped.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// appendFloat appends f as encoding/json does (ES6 number formatting);
// ok is false for a NaN or an infinity, which encoding/json refuses.
func appendFloat(b []byte, f float64) (_ []byte, ok bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// clean up e-09 to e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// appendUint is strconv.AppendUint(b, n, 10), writing two digits at a
// time in place instead of copying them out of a scratch buffer: the
// queue's arrival instants are most of a saturated link's checkpoint.
func appendUint(b []byte, n uint64) []byte {
	if n < 10 {
		return append(b, byte('0'+n))
	}
	l := bits.Len64(n) * 1233 >> 12 // the digits of n, or one less
	if n >= pow10[l] {
		l++
	}
	b = slices.Grow(b, l)
	i := len(b) + l
	b = b[:i]
	for n >= 100 {
		q := n / 100
		r := 2 * (n - q*100)
		i -= 2
		b[i], b[i+1] = digitPairs[r], digitPairs[r+1]
		n = q
	}
	if n >= 10 {
		b[i-2], b[i-1] = digitPairs[2*n], digitPairs[2*n+1]
	} else {
		b[i-1] = byte('0' + n)
	}
	return b
}

var pow10 = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

func (e *encoder) str(s string) { e.buf = appendString(e.buf, s) }

func (e *encoder) raw(s string) { e.buf = append(e.buf, s...) }

func (e *encoder) uint(n uint64) { e.buf = appendUint(e.buf, n) }

// appendBytes appends p as encoding/json does: base64, null when nil.
func appendBytes(b, p []byte) []byte {
	if p == nil {
		return append(b, "null"...)
	}
	b = append(b, '"')
	b = base64.StdEncoding.AppendEncode(b, p)
	return append(b, '"')
}

// json appends a bounded leaf through encoding/json.
func (e *encoder) json(v any) {
	if err := e.leaf.Encode(v); err != nil {
		e.bad = true
		return
	}
	e.buf = e.buf[:len(e.buf)-1] // Encode's newline
}

func (e *encoder) checkpoint(c *Checkpoint) {
	e.raw(`{"version":`)
	e.buf = strconv.AppendInt(e.buf, int64(c.Version), 10)
	e.raw(`,"time":`)
	e.uint(c.Time)
	if c.Board != nil {
		e.raw(`,"board":`)
		e.board(c.Board)
	}
	if c.Cluster != nil {
		e.raw(`,"cluster":`)
		e.cluster(c.Cluster)
	}
	if h := c.Host; h != nil {
		e.raw(`,"host":{"session":`)
		e.session(&h.Session)
		if h.Serial != nil {
			e.raw(`,"serial":`)
			e.json(h.Serial)
		}
		e.raw("}")
	}
	if h := c.ClusterHost; h != nil {
		e.raw(`,"clusterHost":{"session":`)
		e.session(&h.Session)
		if len(h.Serials) > 0 {
			e.raw(`,"serials":`)
			e.json(h.Serials)
		}
		e.raw("}")
	}
	e.raw("}")
}

func (e *encoder) cluster(cs *target.ClusterState) {
	e.raw("{")
	if cs.Parallel {
		e.raw(`"parallel":true,`)
	}
	e.raw(`"kernel":`)
	e.json(&cs.Kernel)
	e.raw(`,"net":`)
	e.json(&cs.Net)
	e.raw(`,"boards":`)
	if cs.Boards == nil {
		e.raw("null")
	} else {
		names := make([]string, 0, len(cs.Boards))
		for name := range cs.Boards {
			names = append(names, name)
		}
		sort.Strings(names)
		e.raw("{")
		for i, name := range names {
			if i > 0 {
				e.raw(",")
			}
			e.str(name)
			e.raw(":")
			if b := cs.Boards[name]; b == nil {
				e.raw("null")
			} else {
				e.board(b)
			}
		}
		e.raw("}")
	}
	if len(cs.Inboxes) > 0 {
		e.raw(`,"inboxes":`)
		e.json(cs.Inboxes)
	}
	e.raw("}")
}

func (e *encoder) board(b *target.BoardState) {
	e.raw(`{"name":`)
	e.str(b.Name)
	e.raw(`,"program":`)
	e.str(b.Program)
	if b.Kernel != nil {
		e.raw(`,"kernel":`)
		e.json(b.Kernel)
	}
	e.raw(`,"sched":`)
	e.json(&b.Sched)
	e.raw(`,"ram":`)
	e.buf = appendBytes(e.buf, b.RAM)
	e.raw(`,"link":{"baud":`)
	e.buf = strconv.AppendInt(e.buf, int64(b.Link.Baud), 10)
	e.raw(`,"now":`)
	e.uint(b.Link.Now)
	e.raw(`,"dirs":[`)
	for i := range b.Link.Dirs {
		if i > 0 {
			e.raw(",")
		}
		e.buf = appendDirection(e.buf, &b.Link.Dirs[i])
	}
	e.raw(`]},"seq":`)
	e.uint(uint64(b.Seq))
	e.raw(`,"cycles":`)
	e.uint(b.Cycles)
	if b.Instr != 0 {
		e.raw(`,"instr":`)
		e.uint(b.Instr)
	}
	if b.DropsSeen != 0 {
		e.raw(`,"dropsSeen":`)
		e.uint(b.DropsSeen)
	}
	if b.LastErr != "" {
		e.raw(`,"lastErr":`)
		e.str(b.LastErr)
	}
	e.raw(`,"dec":`)
	e.json(&b.Dec)
	e.raw(`,"agent":`)
	e.json(&b.Agent)
	if len(b.Units) > 0 {
		e.raw(`,"units":`)
		e.json(b.Units)
	}
	if b.Susp != nil {
		e.raw(`,"susp":`)
		e.json(b.Susp)
	}
	if len(b.Deferred) > 0 {
		e.raw(`,"deferred":`)
		e.json(b.Deferred)
	}
	e.raw("}")
}

// inflightHead[v] is `,{"b":v,"at":`, all of a queue entry before its
// arrival instant.
var inflightHead = func() (t [256]string) {
	for v := range t {
		t[v] = `,{"b":` + strconv.Itoa(v) + `,"at":`
	}
	return t
}()

func appendDirection(b []byte, d *serial.DirectionState) []byte {
	b = append(b, '{')
	if len(d.Queue) > 0 {
		b = append(b, `"queue":[`...)
		for i, q := range d.Queue {
			head := inflightHead[q.B]
			if i == 0 {
				head = head[1:]
			}
			b = append(b, head...)
			b = appendUint(b, q.Arrival)
			b = append(b, '}')
		}
		b = append(b, "],"...)
	}
	if len(d.Rx) > 0 {
		b = append(b, `"rx":`...)
		b = append(appendBytes(b, d.Rx), ',')
	}
	b = append(b, `"lineFree":`...)
	b = appendUint(b, d.LineFree)
	b = append(b, `,"stats":{"Bytes":`...)
	b = appendUint(b, d.Stats.Bytes)
	b = append(b, `,"BusyNs":`...)
	b = appendUint(b, d.Stats.BusyNs)
	b = append(b, `,"Dropped":`...)
	b = appendUint(b, d.Stats.Dropped)
	b = append(b, `,"Overruns":`...)
	b = appendUint(b, d.Stats.Overruns)
	b = append(b, `,"FramesDropped":`...)
	b = appendUint(b, d.Stats.FramesDropped)
	return append(b, "}}"...)
}

func (e *encoder) session(s *engine.SessionState) {
	e.raw("{")
	if s.Paused {
		e.raw(`"paused":true,`)
	}
	if s.Mode != 0 {
		e.raw(`"mode":`)
		e.uint(uint64(s.Mode))
		e.raw(",")
	}
	if s.Handled != 0 {
		e.raw(`"handled":`)
		e.uint(s.Handled)
		e.raw(",")
	}
	if s.LastBreak != "" {
		e.raw(`"lastBreak":`)
		e.str(s.LastBreak)
		e.raw(",")
	}
	if len(s.Breaks) > 0 {
		e.raw(`"breaks":`)
		e.json(s.Breaks)
		e.raw(",")
	}
	e.raw(`"trace":`)
	var ok bool
	if e.buf, ok = appendTrace(e.buf, s.Trace); !ok {
		e.bad = true
	}
	if s.Watcher != nil {
		e.raw(`,"watcher":`)
		e.json(s.Watcher)
	}
	e.raw("}")
}

// appendTrace appends the trace; ok is false if an event value is not
// encodable.
func appendTrace(b []byte, t *trace.Trace) (_ []byte, ok bool) {
	if t == nil {
		return append(b, "null"...), true
	}
	b = append(b, `{"program":`...)
	b = appendString(b, t.Program)
	b = append(b, `,"records":`...)
	if t.Records == nil {
		return append(b, "null}"...), true
	}
	b = append(b, '[')
	for i := range t.Records {
		r := &t.Records[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"seq":`...)
		b = appendUint(b, r.Seq)
		b = append(b, `,"recvNs":`...)
		b = appendUint(b, r.RecvNs)
		b = append(b, `,"event":{"Type":`...)
		b = appendUint(b, uint64(r.Event.Type))
		b = append(b, `,"Seq":`...)
		b = appendUint(b, uint64(r.Event.Seq))
		b = append(b, `,"Time":`...)
		b = appendUint(b, r.Event.Time)
		b = append(b, `,"Source":`...)
		b = appendString(b, r.Event.Source)
		b = append(b, `,"Arg1":`...)
		b = appendString(b, r.Event.Arg1)
		b = append(b, `,"Arg2":`...)
		b = appendString(b, r.Event.Arg2)
		b = append(b, `,"Value":`...)
		if b, ok = appendFloat(b, r.Event.Value); !ok {
			return b, false
		}
		b = append(b, "}}"...)
	}
	return append(b, "]}"...), true
}

// decoder reads the canonical form. Any byte it does not expect clears ok
// (and parks the cursor at the end, so every loop stops); the caller then
// falls back to encoding/json. Keys must arrive in declaration order, each
// at most once, so the value built equals what encoding/json builds from a
// zero Checkpoint.
type decoder struct {
	b  []byte
	i  int
	ok bool
	// first is set between an object's '{' and its first key.
	first bool
	// strs is a direct-mapped cache of decoded strings: trace records
	// repeat a few names, which then share one allocation.
	strs [64]string
}

func (d *decoder) fail() {
	d.ok = false
	d.i = len(d.b)
}

// take consumes s if it comes next.
func (d *decoder) take(s string) bool {
	if len(d.b)-d.i >= len(s) && string(d.b[d.i:d.i+len(s)]) == s {
		d.i += len(s)
		return true
	}
	return false
}

func (d *decoder) lit(s string) {
	if !d.take(s) {
		d.fail()
	}
}

func (d *decoder) open() {
	d.lit("{")
	d.first = true
}

func (d *decoder) close() {
	d.lit("}")
	d.first = false
}

// key consumes the next member's `"name":` — after a comma unless it is
// the object's first member — and reports whether it was there.
func (d *decoder) key(name string) bool {
	j := d.i
	if !d.first {
		if j >= len(d.b) || d.b[j] != ',' {
			return false
		}
		j++
	}
	end := j + len(name) + 3
	if end > len(d.b) || d.b[j] != '"' || string(d.b[j+1:end-2]) != name || d.b[end-2] != '"' || d.b[end-1] != ':' {
		return false
	}
	d.i, d.first = end, false
	return true
}

func (d *decoder) need(name string) {
	if !d.key(name) {
		d.fail()
	}
}

// uint reads a JSON integer in [0, max].
func (d *decoder) uint(max uint64) uint64 {
	b, i := d.b, d.i
	var n uint64
	j, end := i, min(len(b), i+19)
	for ; j < end && b[j]-'0' <= 9; j++ {
		n = n*10 + uint64(b[j]-'0')
	}
	if j < len(b) && b[j]-'0' <= 9 { // a 20th digit may overflow
		c := uint64(b[j] - '0')
		if n > (math.MaxUint64-c)/10 {
			d.fail()
			return 0
		}
		n = n*10 + c
		j++
	}
	if j == i || j-i > 1 && b[i] == '0' || j < len(b) && b[j]-'0' <= 9 || n > max {
		d.fail()
		return 0
	}
	d.i = j
	return n
}

func (d *decoder) u64() uint64 { return d.uint(math.MaxUint64) }

func (d *decoder) int() int {
	neg := d.take("-")
	n := int(d.uint(math.MaxInt))
	if neg {
		return -n
	}
	return n
}

// float reads a JSON number as encoding/json does (strconv.ParseFloat).
func (d *decoder) float() float64 {
	b, s := d.b, d.i
	i := s
	digits := func() bool {
		j := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		d.fail()
		return 0
	}
	integral := true
	if i < len(b) && b[i] == '.' {
		i++
		integral = false
		if !digits() {
			d.fail()
			return 0
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		integral = false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			d.fail()
			return 0
		}
	}
	d.i = i
	tok := b[s:i]
	if integral && len(tok) < 16 {
		// Below 2^53 every integer is exact: skip ParseFloat.
		neg := tok[0] == '-'
		if neg {
			tok = tok[1:]
		}
		var n uint64
		for _, c := range tok {
			n = n*10 + uint64(c-'0')
		}
		f := float64(n)
		if neg {
			f = -f
		}
		return f
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		d.fail()
	}
	return f
}

// str reads a JSON string.
func (d *decoder) str() string {
	if d.i >= len(d.b) || d.b[d.i] != '"' {
		d.fail()
		return ""
	}
	s := d.i + 1
	for i := s; i < len(d.b); i++ {
		switch c := d.b[i]; {
		case c == '"':
			d.i = i + 1
			return d.intern(d.b[s:i])
		case c < 0x20 || c == '\\' || c >= utf8.RuneSelf:
			return d.strSlow(s)
		}
	}
	d.fail()
	return ""
}

func (d *decoder) intern(p []byte) string {
	if len(p) == 0 {
		return ""
	}
	h := uint(0)
	for _, c := range p {
		h = h*31 + uint(c)
	}
	slot := &d.strs[h%uint(len(d.strs))]
	if *slot != string(p) {
		*slot = string(p)
	}
	return *slot
}

// strSlow reads a string with escapes or non-ASCII bytes. What
// encoding/json would repair (invalid UTF-8, lone surrogates) or reject
// fails here.
func (d *decoder) strSlow(s int) string {
	b := d.b
	var out []byte
	for i := s; i < len(b); {
		c := b[i]
		switch {
		case c == '"':
			d.i = i + 1
			return string(out)
		case c < 0x20 || c == '\\' && i+1 == len(b):
			d.fail()
			return ""
		case c == '\\':
			switch esc := b[i+1]; esc {
			case '"', '\\', '/':
				out = append(out, esc)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := d.hex4(i + 2)
				if r < 0 || utf16.IsSurrogate(r) {
					d.fail()
					return ""
				}
				out = utf8.AppendRune(out, r)
				i += 4
			default:
				d.fail()
				return ""
			}
			i += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				d.fail()
				return ""
			}
			out = append(out, b[i:i+size]...)
			i += size
		}
	}
	d.fail()
	return ""
}

// hex4 reads the four hex digits of a \u escape at i, or returns -1.
func (d *decoder) hex4(i int) rune {
	if i+4 > len(d.b) {
		return -1
	}
	var r rune
	for _, h := range d.b[i : i+4] {
		switch {
		case '0' <= h && h <= '9':
			h -= '0'
		case 'a' <= h && h <= 'f':
			h -= 'a' - 10
		case 'A' <= h && h <= 'F':
			h -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(h)
	}
	return r
}

// bytes reads a base64 string (or null) as encoding/json reads a []byte.
func (d *decoder) bytes() []byte {
	if d.take("null") {
		return nil
	}
	if !d.take(`"`) {
		d.fail()
		return nil
	}
	s := d.i
	for d.i < len(d.b) && d.b[d.i] != '"' {
		if c := d.b[d.i]; c < 0x20 || c == '\\' {
			d.fail()
			return nil
		}
		d.i++
	}
	if d.i >= len(d.b) {
		d.fail()
		return nil
	}
	src := d.b[s:d.i]
	d.i++
	out := make([]byte, base64.StdEncoding.DecodedLen(len(src)))
	n, err := base64.StdEncoding.Decode(out, src)
	if err != nil {
		d.fail()
		return nil
	}
	return out[:n]
}

// json decodes the bounded leaf at the cursor through encoding/json. The
// span ends at the first ',', '}' or ']' outside the value's own brackets
// and strings; json.Unmarshal validates it, so a malformed span fails the
// fast path instead of being misread.
func (d *decoder) json(v any) {
	s, depth := d.i, 0
	for i := s; i < len(d.b); i++ {
		switch d.b[i] {
		case '"':
			for i++; i < len(d.b) && d.b[i] != '"'; i++ {
				if d.b[i] == '\\' {
					i++
				}
			}
		case '{', '[':
			depth++
		case '}', ']', ',':
			if depth == 0 {
				d.i = i
				if json.Unmarshal(d.b[s:i], v) != nil {
					d.fail()
				}
				return
			}
			if d.b[i] != ',' {
				depth--
			}
		}
	}
	d.fail()
}

// object is json for a struct-typed leaf: an empty object leaves the
// struct zero, as encoding/json does.
func (d *decoder) object(v any) {
	if !d.take("{}") {
		d.json(v)
	}
}

func (d *decoder) checkpoint() *Checkpoint {
	c := new(Checkpoint)
	d.open()
	d.need("version")
	c.Version = d.int()
	d.need("time")
	c.Time = d.u64()
	if d.key("board") {
		c.Board = d.board()
	}
	if d.key("cluster") {
		c.Cluster = d.cluster()
	}
	if d.key("host") {
		h := new(HostState)
		d.open()
		d.need("session")
		d.session(&h.Session)
		if d.key("serial") {
			d.json(&h.Serial)
		}
		d.close()
		c.Host = h
	}
	if d.key("clusterHost") {
		h := new(ClusterHostState)
		d.open()
		d.need("session")
		d.session(&h.Session)
		if d.key("serials") {
			d.json(&h.Serials)
		}
		d.close()
		c.ClusterHost = h
	}
	d.close()
	return c
}

func (d *decoder) cluster() *target.ClusterState {
	cs := new(target.ClusterState)
	d.open()
	if d.key("parallel") {
		cs.Parallel = d.bool()
	}
	d.need("kernel")
	d.json(&cs.Kernel)
	d.need("net")
	d.json(&cs.Net)
	d.need("boards")
	if !d.take("null") {
		cs.Boards = map[string]*target.BoardState{}
		d.lit("{")
		// encoding/json decodes each key into a fresh value and keeps the
		// last of repeated keys; so does this loop, whatever the key order.
		for n := 0; d.ok && !d.take("}"); n++ {
			if n > 0 {
				d.lit(",")
			}
			name := d.str()
			d.lit(":")
			cs.Boards[name] = d.board()
		}
	}
	if d.key("inboxes") {
		d.json(&cs.Inboxes)
	}
	d.close()
	return cs
}

func (d *decoder) bool() bool {
	if d.take("true") {
		return true
	}
	d.lit("false")
	return false
}

func (d *decoder) board() *target.BoardState {
	b := new(target.BoardState)
	d.open()
	d.need("name")
	b.Name = d.str()
	d.need("program")
	b.Program = d.str()
	if d.key("kernel") {
		d.json(&b.Kernel)
	}
	d.need("sched")
	d.json(&b.Sched)
	d.need("ram")
	b.RAM = d.bytes()
	d.need("link")
	d.open()
	d.need("baud")
	b.Link.Baud = d.int()
	d.need("now")
	b.Link.Now = d.u64()
	d.need("dirs")
	d.lit("[")
	d.direction(&b.Link.Dirs[0])
	d.lit(",")
	d.direction(&b.Link.Dirs[1])
	d.lit("]")
	d.close()
	d.need("seq")
	b.Seq = uint16(d.uint(math.MaxUint16))
	d.need("cycles")
	b.Cycles = d.u64()
	if d.key("instr") {
		b.Instr = d.u64()
	}
	if d.key("dropsSeen") {
		b.DropsSeen = d.u64()
	}
	if d.key("lastErr") {
		b.LastErr = d.str()
	}
	d.need("dec")
	d.object(&b.Dec)
	d.need("agent")
	d.object(&b.Agent)
	if d.key("units") {
		d.json(&b.Units)
	}
	if d.key("susp") {
		d.json(&b.Susp)
	}
	if d.key("deferred") {
		d.json(&b.Deferred)
	}
	d.close()
	return b
}

func (d *decoder) direction(ds *serial.DirectionState) {
	d.open()
	if d.key("queue") {
		d.lit("[")
		// Entries hold only digits: count them to size the slice once.
		n := 0
		if end := bytes.IndexByte(d.b[d.i:], ']'); end > 0 {
			n = bytes.Count(d.b[d.i:d.i+end], []byte("{"))
		}
		ds.Queue = make([]serial.InflightState, 0, n)
		for d.ok && !d.take("]") {
			if len(ds.Queue) > 0 {
				d.lit(",")
			}
			ds.Queue = append(ds.Queue, d.inflight())
		}
	}
	if d.key("rx") {
		ds.Rx = d.bytes()
	}
	d.need("lineFree")
	ds.LineFree = d.u64()
	d.need("stats")
	d.open()
	d.need("Bytes")
	ds.Stats.Bytes = d.u64()
	d.need("BusyNs")
	ds.Stats.BusyNs = d.u64()
	d.need("Dropped")
	ds.Stats.Dropped = d.u64()
	d.need("Overruns")
	ds.Stats.Overruns = d.u64()
	d.need("FramesDropped")
	ds.Stats.FramesDropped = d.u64()
	d.close()
	d.close()
}

// inflight reads one `{"b":B,"at":A}` queue entry. A saturated link's
// queue is most of a checkpoint, so the literals are compared inline
// (constant comparisons, no memequal call).
func (d *decoder) inflight() (q serial.InflightState) {
	if len(d.b)-d.i < 5 || string(d.b[d.i:d.i+5]) != `{"b":` {
		d.fail()
		return q
	}
	d.i += 5
	q.B = byte(d.uint(math.MaxUint8))
	if len(d.b)-d.i < 6 || string(d.b[d.i:d.i+6]) != `,"at":` {
		d.fail()
		return q
	}
	d.i += 6
	q.Arrival = d.u64()
	if d.i >= len(d.b) || d.b[d.i] != '}' {
		d.fail()
		return q
	}
	d.i++
	return q
}

func (d *decoder) session(s *engine.SessionState) {
	d.open()
	if d.key("paused") {
		s.Paused = d.bool()
	}
	if d.key("mode") {
		s.Mode = uint8(d.uint(math.MaxUint8))
	}
	if d.key("handled") {
		s.Handled = d.u64()
	}
	if d.key("lastBreak") {
		s.LastBreak = d.str()
	}
	if d.key("breaks") {
		d.json(&s.Breaks)
	}
	d.need("trace")
	if !d.take("null") {
		s.Trace = d.trace()
	}
	if d.key("watcher") {
		d.json(&s.Watcher)
	}
	d.close()
}

func (d *decoder) trace() *trace.Trace {
	t := new(trace.Trace)
	d.open()
	d.need("program")
	t.Program = d.str()
	d.need("records")
	if !d.take("null") {
		d.lit("[")
		t.Records = []trace.Record{}
		for d.ok && !d.take("]") {
			if len(t.Records) > 0 {
				d.lit(",")
			}
			var r trace.Record
			d.lit(`{"seq":`)
			r.Seq = d.u64()
			d.lit(`,"recvNs":`)
			r.RecvNs = d.u64()
			d.lit(`,"event":{"Type":`)
			r.Event.Type = protocol.EventType(d.uint(math.MaxUint8))
			d.lit(`,"Seq":`)
			r.Event.Seq = uint16(d.uint(math.MaxUint16))
			d.lit(`,"Time":`)
			r.Event.Time = d.u64()
			d.lit(`,"Source":`)
			r.Event.Source = d.str()
			d.lit(`,"Arg1":`)
			r.Event.Arg1 = d.str()
			d.lit(`,"Arg2":`)
			r.Event.Arg2 = d.str()
			d.lit(`,"Value":`)
			r.Event.Value = d.float()
			d.lit("}}")
			t.Records = append(t.Records, r)
		}
	}
	d.close()
	return t
}
