package protocol

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Frame layout (before byte stuffing), after SOF:
//
//	kind(1) type(1) seq(2) time(8) len(2) payload crc(2)
//
// kind distinguishes events (0x01) from instructions (0x02) so both can
// share a full-duplex link. The payload packs the string fields with one
// length byte each plus the float64 value:
//
//	srcLen(1) src a1Len(1) a1 a2Len(1) a2 value(8)
//
// The body is HDLC-style byte-stuffed: SOF (0x7E) and ESC (0x7D) bytes in
// the body are sent as ESC, b^0x20. A raw SOF therefore always marks a
// frame boundary, which guarantees the decoder can resynchronise after
// arbitrary line noise: the next genuine frame's SOF aborts whatever
// damaged frame the decoder was accumulating.

const (
	kindEvent       = 0x01
	kindInstruction = 0x02
	headerLen       = 1 + 1 + 2 + 8 + 2 // after SOF, before payload

	escByte = 0x7D
	escXor  = 0x20
)

func packPayload(src, a1, a2 string, val float64) ([]byte, error) {
	if len(src) > MaxField || len(a1) > MaxField || len(a2) > MaxField {
		return nil, fmt.Errorf("protocol: string field exceeds %d bytes", MaxField)
	}
	out := make([]byte, 0, 3+len(src)+len(a1)+len(a2)+8)
	for _, s := range []string{src, a1, a2} {
		out = append(out, byte(len(s)))
		out = append(out, s...)
	}
	var fb [8]byte
	binary.BigEndian.PutUint64(fb[:], math.Float64bits(val))
	out = append(out, fb[:]...)
	if len(out) > MaxPayload {
		return nil, fmt.Errorf("protocol: payload %d exceeds max %d", len(out), MaxPayload)
	}
	return out, nil
}

func unpackPayload(p []byte) (src, a1, a2 string, val float64, err error) {
	fields := make([]string, 3)
	pos := 0
	for i := 0; i < 3; i++ {
		if pos >= len(p) {
			return "", "", "", 0, fmt.Errorf("protocol: truncated payload")
		}
		n := int(p[pos])
		pos++
		if pos+n > len(p) {
			return "", "", "", 0, fmt.Errorf("protocol: string field overruns payload")
		}
		fields[i] = string(p[pos : pos+n])
		pos += n
	}
	if pos+8 != len(p) {
		return "", "", "", 0, fmt.Errorf("protocol: payload length mismatch (%d vs %d)", pos+8, len(p))
	}
	val = math.Float64frombits(binary.BigEndian.Uint64(p[pos:]))
	return fields[0], fields[1], fields[2], val, nil
}

// stuff escapes SOF and ESC bytes in body.
func stuff(body []byte) []byte {
	out := make([]byte, 0, len(body)+4)
	for _, b := range body {
		if b == SOF || b == escByte {
			out = append(out, escByte, b^escXor)
			continue
		}
		out = append(out, b)
	}
	return out
}

func encodeFrame(kind, typ byte, seq uint16, t uint64, payload []byte) []byte {
	body := make([]byte, 0, headerLen+len(payload)+2)
	body = append(body, kind, typ)
	body = binary.BigEndian.AppendUint16(body, seq)
	body = binary.BigEndian.AppendUint64(body, t)
	body = binary.BigEndian.AppendUint16(body, uint16(len(payload)))
	body = append(body, payload...)
	body = binary.BigEndian.AppendUint16(body, CRC16(body))
	return append([]byte{SOF}, stuff(body)...)
}

// UnstuffedLen is the length of e's wire frame before byte stuffing:
// SOF, header, payload and CRC. Stuffing only ever adds bytes, so it is a
// lower bound on len(EncodeEvent(e)) that costs nothing to compute.
func UnstuffedLen(e Event) int {
	return 1 + headerLen + 3 + len(e.Source) + len(e.Arg1) + len(e.Arg2) + 8 + 2
}

// EncodeEvent serializes an event to its wire frame.
func EncodeEvent(e Event) ([]byte, error) {
	payload, err := packPayload(e.Source, e.Arg1, e.Arg2, e.Value)
	if err != nil {
		return nil, err
	}
	return encodeFrame(kindEvent, byte(e.Type), e.Seq, e.Time, payload), nil
}

// EncodeInstruction serializes an instruction to its wire frame.
func EncodeInstruction(in Instruction) ([]byte, error) {
	payload, err := packPayload(in.Source, in.Arg1, "", in.Value)
	if err != nil {
		return nil, err
	}
	return encodeFrame(kindInstruction, byte(in.Type), in.Seq, 0, payload), nil
}

// Decoder incrementally parses a byte stream into events and instructions.
// Damaged input (bad CRC, bad lengths, truncation) is discarded up to the
// next raw SOF; the Errors counter tallies discarded fragments.
type Decoder struct {
	body    []byte // unstuffed body of the frame being accumulated
	inFrame bool
	esc     bool
	noise   bool // inside a run of pre-SOF noise (coalesced error count)
	Errors  int

	events       []Event
	instructions []Instruction
}

// Feed appends data and returns all complete, valid messages decoded so
// far, in arrival order per slice.
func (d *Decoder) Feed(data []byte) ([]Event, []Instruction) {
	for _, b := range data {
		d.step(b)
	}
	evs, ins := d.events, d.instructions
	d.events, d.instructions = nil, nil
	return evs, ins
}

// step advances the deframing state machine by one raw byte.
func (d *Decoder) step(b byte) {
	if b == SOF {
		// A raw SOF always starts a new frame; any partial frame in
		// progress was damaged or was noise.
		if d.inFrame && len(d.body) > 0 {
			d.Errors++
		}
		d.inFrame = true
		d.esc = false
		d.body = d.body[:0]
		return
	}
	if !d.inFrame {
		// Noise before the first SOF; count once per run via Errors on the
		// next SOF? Keep it simple: count each orphan byte run lazily.
		d.noteNoise()
		return
	}
	if d.esc {
		d.esc = false
		b ^= escXor
	} else if b == escByte {
		d.esc = true
		return
	}
	d.body = append(d.body, b)
	d.tryComplete()
}

// noiseNoted coalesces leading-noise error counting to once per run.
func (d *Decoder) noteNoise() {
	if !d.noise {
		d.noise = true
		d.Errors++
	}
}

// tryComplete checks whether the accumulated body forms a full frame.
func (d *Decoder) tryComplete() {
	if len(d.body) < headerLen {
		return
	}
	plen := int(binary.BigEndian.Uint16(d.body[12:14]))
	if plen > MaxPayload {
		d.Errors++
		d.inFrame = false
		d.body = d.body[:0]
		return
	}
	total := headerLen + plen + 2
	if len(d.body) < total {
		return
	}
	if len(d.body) > total {
		// Cannot happen: we check after every byte. Guard anyway.
		d.Errors++
		d.inFrame = false
		d.body = d.body[:0]
		return
	}
	frame := d.body
	want := binary.BigEndian.Uint16(frame[total-2:])
	if CRC16(frame[:total-2]) != want {
		d.Errors++
		d.inFrame = false
		d.body = d.body[:0]
		return
	}
	kind, typ := frame[0], frame[1]
	seq := binary.BigEndian.Uint16(frame[2:4])
	tstamp := binary.BigEndian.Uint64(frame[4:12])
	src, a1, a2, val, err := unpackPayload(frame[headerLen : total-2])
	if err != nil {
		d.Errors++
	} else {
		switch kind {
		case kindEvent:
			d.events = append(d.events, Event{Type: EventType(typ), Seq: seq, Time: tstamp, Source: src, Arg1: a1, Arg2: a2, Value: val})
		case kindInstruction:
			d.instructions = append(d.instructions, Instruction{Type: InstructionType(typ), Seq: seq, Source: src, Arg1: a1, Value: val})
		default:
			d.Errors++
		}
	}
	d.inFrame = false
	d.noise = false
	d.body = d.body[:0]
}

// Pending returns the number of buffered, not-yet-decodable body bytes.
func (d *Decoder) Pending() int { return len(d.body) }

// DecoderState is the portable form of a Decoder's deframing state: the
// partially accumulated frame body and the resynchronisation flags. A
// checkpoint taken while a frame straddles the capture instant restores
// with the decoder mid-frame, so the remaining bytes complete it exactly
// as they would have.
type DecoderState struct {
	Body    []byte `json:"body,omitempty"`
	InFrame bool   `json:"inFrame,omitempty"`
	Esc     bool   `json:"esc,omitempty"`
	Noise   bool   `json:"noise,omitempty"`
	Errors  int    `json:"errors,omitempty"`
}

// Clone deep-copies the deframing state (partial frame body duplicated,
// nil-ness preserved).
func (st DecoderState) Clone() DecoderState {
	cp := st
	cp.Body = slices.Clone(st.Body)
	return cp
}

// Snapshot captures the deframing state. Decoded-but-undrained messages
// are not part of it: callers drain Feed's return values synchronously, so
// at any quiescent point the pending slices are empty.
func (d *Decoder) Snapshot() DecoderState {
	st := DecoderState{InFrame: d.inFrame, Esc: d.esc, Noise: d.noise, Errors: d.Errors}
	if len(d.body) > 0 {
		st.Body = append([]byte(nil), d.body...)
	}
	return st
}

// Restore rewinds the decoder to a previously captured deframing state.
func (d *Decoder) Restore(st DecoderState) {
	d.body = append(d.body[:0], st.Body...)
	d.inFrame = st.InFrame
	d.esc = st.Esc
	d.noise = st.Noise
	d.Errors = st.Errors
	d.events, d.instructions = nil, nil
}
