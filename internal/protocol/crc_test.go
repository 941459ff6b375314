package protocol

// Differential test of the table-driven CRC16 against the bit-serial
// definition of CRC-16/CCITT-FALSE, plus the protocol rungs of the layer
// cost ladder (checksum and whole-frame encode).

import "testing"

// crcBitwise is the reference CRC-16/CCITT-FALSE: the register shifts one
// message bit at a time through the polynomial.
func crcBitwise(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc ^= uint16(b) << 8
		for range 8 {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ crcPoly
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// FuzzCRC16: the table CRC equals the bit-serial reference on any input.
// The seed "123456789" is the CRC-16/CCITT-FALSE check string (0x29B1,
// pinned by TestCRC16KnownVector).
func FuzzCRC16(f *testing.F) {
	f.Add([]byte("123456789"))
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xFF, 0xFF, 0x7E, 0x7D})
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := CRC16(data), crcBitwise(data); got != want {
			t.Fatalf("CRC16(%x) = %#04x, bit-serial reference %#04x", data, got, want)
		}
	})
}

// TestUnstuffedLenBoundsEncodedLen: the unstuffed length equals the wire
// length of a frame that needs no stuffing and never exceeds it otherwise,
// which is what lets the overrun reporter skip encoding a frame that
// cannot fit.
func TestUnstuffedLenBoundsEncodedLen(t *testing.T) {
	for _, ev := range []Event{
		{Type: EvOverrun, Seq: 1, Time: 1000, Source: "main", Arg1: "frames", Value: 3},
		{Type: EvOverrun, Seq: 0x7E7D, Time: 0x7E7E, Source: "\x7e\x7d", Arg1: "frames", Value: 126},
		{Type: EvTransition, Source: "ring.n0", Arg1: "Idle", Arg2: "Holding"},
	} {
		wire, err := EncodeEvent(ev)
		if err != nil {
			t.Fatal(err)
		}
		stuffed := 0
		for _, b := range wire[1:] {
			if b == escByte {
				stuffed++
			}
		}
		if got := UnstuffedLen(ev); got != len(wire)-stuffed {
			t.Errorf("UnstuffedLen(%v) = %d, wire %d bytes with %d escapes", ev, got, len(wire), stuffed)
		}
	}
}

// BenchmarkCRC16 checksums the unstuffed body of a typical signal frame.
func BenchmarkCRC16(b *testing.B) {
	data := make([]byte, 48)
	for i := range data {
		data[i] = byte(i * 37)
	}
	b.SetBytes(int64(len(data)))
	for b.Loop() {
		CRC16(data)
	}
}

// BenchmarkEncodeEvent encodes one instrumented signal event to its wire
// frame: payload packing, header, CRC and byte stuffing.
func BenchmarkEncodeEvent(b *testing.B) {
	ev := Event{Type: EvSignal, Seq: 42, Time: 123_456_789, Source: "ring.node2.token", Value: 1}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := EncodeEvent(ev); err != nil {
			b.Fatal(err)
		}
	}
}
