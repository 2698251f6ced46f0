// Package codepack implements a CodePack-style compressor (paper §3.2,
// after IBM's CodePack for embedded PowerPC): instructions are split into
// 16-bit halves, each half is encoded with a tagged variable-length code
// drawn from per-program frequency tables, instructions are packed into
// groups of 16 (two 32-byte cache lines), and a line-address table (LAT)
// maps each group to its bit-stream offset.
//
// Unlike the dictionary scheme, codewords are variable length, so decoding
// is serial within a group and the decompressor needs one extra memory
// access to read the LAT.
package codepack

import (
	"encoding/binary"
	"fmt"

	"repro/internal/compress/rank"
)

// GroupInstrs is the number of instructions per compression group: two
// 32-byte cache lines.
const GroupInstrs = 16

// GroupBytes is the native size of one group.
const GroupBytes = GroupInstrs * 4

// Class geometry: rank 0 gets the 2-bit tag alone; the next classes get
// growing index widths; everything else escapes to a raw 16-bit literal.
const (
	class1Size = 32   // tag 01 + 5 bits
	class2Size = 256  // tag 10 + 8 bits
	class3Size = 2048 // tag 110 + 11 bits
)

// Table header layout (serialised at the start of the .dictionary
// segment; all offsets are relative to the segment base). The assembly
// decompressor reads the six table offsets from the header.
const (
	hdrHi0    = 0x00 // rank-0 high halfword (2 bytes)
	hdrLo0    = 0x02 // rank-0 low halfword (2 bytes)
	hdrHi1Off = 0x04 // uint32 offsets of the six tables
	hdrLo1Off = 0x08
	hdrHi2Off = 0x0C
	hdrLo2Off = 0x10
	hdrHi3Off = 0x14
	hdrLo3Off = 0x18
	hdrSize   = 0x20
)

// halfCoder holds the decode tables of one half (high/low): the values
// of each codeword class in rank order.
type halfCoder struct {
	rank0  uint16
	table1 []uint16 // ranks 1..32
	table2 []uint16 // ranks 33..288
	table3 []uint16 // ranks 289..2336
}

// buildHalfCoder ranks the halfword values by descending count, ties
// broken by first appearance, and returns the decode tables. It writes
// each present value's codeword into code (indexed by value, 1<<16
// entries) for the encoder. count is a zeroed 1<<16-entry scratch table,
// zeroed again on return so the other half can reuse it.
func buildHalfCoder(values []uint16, count []int32, code []codeword) *halfCoder {
	var ordered []uint16 // distinct values in order of first appearance
	for _, v := range values {
		if count[v] == 0 {
			ordered = append(ordered, v)
		}
		count[v]++
	}
	counts := make([]int32, len(ordered))
	for i, v := range ordered {
		counts[i] = count[v]
		count[v] = 0
	}
	hc := &halfCoder{}
	for r, i := range rank.ByCount(counts) {
		v := ordered[i]
		code[v] = encode(r, v)
		switch {
		case r == 0:
			hc.rank0 = v
		case r <= class1Size:
			hc.table1 = append(hc.table1, v)
		case r <= class1Size+class2Size:
			hc.table2 = append(hc.table2, v)
		case r <= class1Size+class2Size+class3Size:
			hc.table3 = append(hc.table3, v)
		}
	}
	return hc
}

// codeword is one halfword's code: its bits above the low five, its
// length in bits in the low five.
type codeword uint32

func (c codeword) bits() uint { return uint(c & 31) }

// encode returns the codeword for v, of rank r: a class tag, then the
// rank within the class or, past the last class, v itself.
func encode(r int, v uint16) codeword {
	cw := func(tag, tagBits, x, xBits uint32) codeword {
		return codeword((tag<<xBits|x)<<5 | (tagBits + xBits))
	}
	switch {
	case r == 0:
		return cw(0b00, 2, 0, 0)
	case r <= class1Size:
		return cw(0b01, 2, uint32(r-1), 5)
	case r <= class1Size+class2Size:
		return cw(0b10, 2, uint32(r-1-class1Size), 8)
	case r <= class1Size+class2Size+class3Size:
		return cw(0b110, 3, uint32(r-1-class1Size-class2Size), 11)
	default:
		return cw(0b111, 3, uint32(v), 16)
	}
}

// decode reads one halfword codeword from r.
func (hc *halfCoder) decode(r *bitReader) uint16 {
	switch r.take(2) {
	case 0b00:
		return hc.rank0
	case 0b01:
		return hc.table1[r.take(5)]
	case 0b10:
		return hc.table2[r.take(8)]
	default:
		if r.take(1) == 0 {
			return hc.table3[r.take(11)]
		}
		return uint16(r.take(16))
	}
}

// Compressed is a CodePack-compressed code region.
type Compressed struct {
	hi, lo *halfCoder
	Stream []byte   // bit-packed codewords, groups halfword-aligned
	LAT    []uint32 // byte offset of each group within Stream
	Instrs int
}

// Compress encodes text (little-endian instruction words, length a
// multiple of GroupBytes) into a CodePack stream.
func Compress(text []byte) (*Compressed, error) {
	if len(text)%GroupBytes != 0 {
		return nil, fmt.Errorf("codepack: text length %d not a multiple of %d", len(text), GroupBytes)
	}
	n := len(text) / 4
	his := make([]uint16, n)
	los := make([]uint16, n)
	for i := 0; i < n; i++ {
		w := binary.LittleEndian.Uint32(text[4*i:])
		los[i] = uint16(w)
		his[i] = uint16(w >> 16)
	}
	// The code tables are transient: only the encoder reads them, so
	// the Compressed value keeps just the decode tables.
	count := make([]int32, 1<<16)
	hiCode := make([]codeword, 1<<16)
	loCode := make([]codeword, 1<<16)
	c := &Compressed{
		hi:     buildHalfCoder(his, count, hiCode),
		lo:     buildHalfCoder(los, count, loCode),
		LAT:    make([]uint32, n/GroupInstrs),
		Instrs: n,
	}
	// Size every group first, which fills the LAT and lets the stream be
	// allocated once at its exact length. Each group is padded to a
	// whole halfword.
	size := 0
	for g := range c.LAT {
		c.LAT[g] = uint32(size)
		var bits uint
		for i := g * GroupInstrs; i < (g+1)*GroupInstrs; i++ {
			bits += hiCode[his[i]].bits() + loCode[los[i]].bits()
		}
		size += int(bits+15) / 16 * 2
	}
	c.Stream = make([]byte, size)
	// Each instruction's two codewords, at most 38 bits, go into a
	// 64-bit accumulator that never holds more than 15 unwritten
	// bits between instructions.
	pos := 0
	for g := range c.LAT {
		var acc uint64
		var pending uint
		for i := g * GroupInstrs; i < (g+1)*GroupInstrs; i++ {
			hi, lo := hiCode[his[i]], loCode[los[i]]
			acc = acc<<(hi.bits()+lo.bits()) | uint64(hi>>5)<<lo.bits() | uint64(lo>>5)
			pending += hi.bits() + lo.bits()
			for ; pending >= 16; pos += 2 {
				pending -= 16
				binary.LittleEndian.PutUint16(c.Stream[pos:], uint16(acc>>pending))
			}
		}
		if pending > 0 {
			binary.LittleEndian.PutUint16(c.Stream[pos:], uint16(acc<<(16-pending)))
			pos += 2
		}
	}
	return c, nil
}

// Decompress is the reference decoder: it must reproduce the original
// text exactly.
func (c *Compressed) Decompress() []byte {
	out := make([]byte, 4*c.Instrs)
	r := &bitReader{data: c.Stream}
	for g := 0; g < len(c.LAT); g++ {
		r.seek(int(c.LAT[g]))
		for i := g * GroupInstrs; i < (g+1)*GroupInstrs; i++ {
			hi := c.hi.decode(r)
			lo := c.lo.decode(r)
			binary.LittleEndian.PutUint32(out[4*i:], uint32(hi)<<16|uint32(lo))
		}
	}
	return out
}

// DecodeGroup decodes group g alone (what the handler does on a miss).
func (c *Compressed) DecodeGroup(g int) []uint32 {
	r := &bitReader{data: c.Stream}
	r.seek(int(c.LAT[g]))
	out := make([]uint32, GroupInstrs)
	for i := range out {
		hi := c.hi.decode(r)
		lo := c.lo.decode(r)
		out[i] = uint32(hi)<<16 | uint32(lo)
	}
	return out
}

// TableBytes serialises the decode tables with the header layout the
// assembly decompressor expects.
func (c *Compressed) TableBytes() []byte {
	put16 := func(b []byte, off int, v uint16) { binary.LittleEndian.PutUint16(b[off:], v) }
	put32 := func(b []byte, off int, v uint32) { binary.LittleEndian.PutUint32(b[off:], v) }
	pad := func(n int) int { return (n + 3) &^ 3 }
	sz := hdrSize
	offHi1 := sz
	sz += pad(2 * len(c.hi.table1))
	offLo1 := sz
	sz += pad(2 * len(c.lo.table1))
	offHi2 := sz
	sz += pad(2 * len(c.hi.table2))
	offLo2 := sz
	sz += pad(2 * len(c.lo.table2))
	offHi3 := sz
	sz += pad(2 * len(c.hi.table3))
	offLo3 := sz
	sz += pad(2 * len(c.lo.table3))
	out := make([]byte, sz)
	put16(out, hdrHi0, c.hi.rank0)
	put16(out, hdrLo0, c.lo.rank0)
	put32(out, hdrHi1Off, uint32(offHi1))
	put32(out, hdrLo1Off, uint32(offLo1))
	put32(out, hdrHi2Off, uint32(offHi2))
	put32(out, hdrLo2Off, uint32(offLo2))
	put32(out, hdrHi3Off, uint32(offHi3))
	put32(out, hdrLo3Off, uint32(offLo3))
	write := func(off int, tab []uint16) {
		for i, v := range tab {
			put16(out, off+2*i, v)
		}
	}
	write(offHi1, c.hi.table1)
	write(offLo1, c.lo.table1)
	write(offHi2, c.hi.table2)
	write(offLo2, c.lo.table2)
	write(offHi3, c.hi.table3)
	write(offLo3, c.lo.table3)
	return out
}

// LATBytes serialises the line-address table as little-endian words.
func (c *Compressed) LATBytes() []byte {
	out := make([]byte, 4*len(c.LAT))
	for i, v := range c.LAT {
		binary.LittleEndian.PutUint32(out[4*i:], v)
	}
	return out
}

// CompressedSize returns stream + tables + LAT, the quantity the paper
// reports as "CodePack compressed size".
func (c *Compressed) CompressedSize() int {
	return len(c.Stream) + len(c.TableBytes()) + len(c.LATBytes())
}
