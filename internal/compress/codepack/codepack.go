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
	"sort"
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
// each value's rank into rank (indexed by value, 1<<16 entries) for the
// encoder. count is a zeroed 1<<16-entry scratch table, zeroed again on
// return so the other half can reuse it.
func buildHalfCoder(values []uint16, count []int32, rank []uint16) *halfCoder {
	var ordered []uint16 // distinct values in order of first appearance
	for _, v := range values {
		if count[v] == 0 {
			ordered = append(ordered, v)
		}
		count[v]++
	}
	// A stable sort by count keeps equal counts in first-appearance order.
	sort.SliceStable(ordered, func(i, j int) bool { return count[ordered[i]] > count[ordered[j]] })
	hc := &halfCoder{}
	for r, v := range ordered {
		count[v] = 0
		rank[v] = uint16(r)
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

// encode appends the codeword for v, of rank r, to w.
func encode(w *bitWriter, r int, v uint16) {
	switch {
	case r == 0:
		w.writeBits(0b00, 2)
	case r <= class1Size:
		w.writeBits(0b01, 2)
		w.writeBits(uint32(r-1), 5)
	case r <= class1Size+class2Size:
		w.writeBits(0b10, 2)
		w.writeBits(uint32(r-1-class1Size), 8)
	case r <= class1Size+class2Size+class3Size:
		w.writeBits(0b110, 3)
		w.writeBits(uint32(r-1-class1Size-class2Size), 11)
	default:
		w.writeBits(0b111, 3)
		w.writeBits(uint32(v), 16)
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
	// The rank tables are transient: only the encoder reads them, so
	// the Compressed value keeps just the decode tables.
	count := make([]int32, 1<<16)
	hiRank := make([]uint16, 1<<16)
	loRank := make([]uint16, 1<<16)
	c := &Compressed{
		hi:     buildHalfCoder(his, count, hiRank),
		lo:     buildHalfCoder(los, count, loRank),
		LAT:    make([]uint32, 0, n/GroupInstrs),
		Instrs: n,
	}
	w := &bitWriter{}
	for g := 0; g < n/GroupInstrs; g++ {
		c.LAT = append(c.LAT, uint32(len(w.bytes())))
		for i := g * GroupInstrs; i < (g+1)*GroupInstrs; i++ {
			encode(w, int(hiRank[his[i]]), his[i])
			encode(w, int(loRank[los[i]]), los[i])
		}
		w.alignHalf()
	}
	c.Stream = w.bytes()
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

// Ratio returns compressed size / original size (Equation 1).
func (c *Compressed) Ratio() float64 {
	if c.Instrs == 0 {
		return 1
	}
	return float64(c.CompressedSize()) / float64(4*c.Instrs)
}
