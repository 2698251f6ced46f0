package codepack

import "encoding/binary"

// The CodePack bit-stream is a sequence of 16-bit little-endian units;
// within each unit bits are consumed MSB-first. This exact format is what
// the assembly decompressor implements with lhu + shifts, so the Go
// encoder (Compress), the decoder here and the handler in internal/decomp
// must agree.

type bitReader struct {
	data []byte
	pos  int
	buf  uint32 // MSB-justified valid bits
	n    uint
	over bool // a refill ran past the end of data (malformed stream)
}

// take consumes k bits (k <= 16), refilling 16 at a time from the stream.
// Reading past the end of data zero-fills and sets over, so a malformed
// stream surfaces as a flag instead of a panic.
func (r *bitReader) take(k uint) uint32 {
	for r.n < k {
		var half uint16
		if r.pos+2 <= len(r.data) {
			half = binary.LittleEndian.Uint16(r.data[r.pos:])
		} else {
			r.over = true
		}
		r.pos += 2
		r.buf |= uint32(half) << (16 - r.n)
		r.n += 16
	}
	v := r.buf >> (32 - k)
	r.buf <<= k
	r.n -= k
	return v
}

// seek positions the reader at byte offset off with an empty bit buffer.
func (r *bitReader) seek(off int) {
	r.pos = off
	r.buf = 0
	r.n = 0
}

// overrun reports whether any take ran past the end of the stream.
func (r *bitReader) overrun() bool { return r.over }
