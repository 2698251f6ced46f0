// Package dict implements the paper's dictionary compression (§3.1):
// every unique 32-bit instruction word is placed in a dictionary and each
// instruction in the program is replaced by a fixed-width index into it.
//
// Fixed-width codewords are the scheme's key property: the compressed
// address of a missed cache line is a simple linear function of the native
// address, so no mapping table is needed (unlike CodePack).
package dict

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// IndexBits selects the codeword width. The paper uses 16-bit indices
// (64K-entry dictionary); 8-bit indices are provided as an ablation.
type IndexBits int

// Supported codeword widths.
const (
	Index16 IndexBits = 16
	Index8  IndexBits = 8
)

// MaxEntries returns the dictionary capacity for the width.
func (b IndexBits) MaxEntries() int { return 1 << b }

// ErrDictionaryFull reports that the program has more unique instructions
// than the index width can address. Callers fall back to selective
// compression (paper §3.1: "when the dictionary is filled the remainder
// of the program is left in the native code region").
type ErrDictionaryFull struct {
	Unique, Max int
}

func (e *ErrDictionaryFull) Error() string {
	return fmt.Sprintf("dict: %d unique instructions exceed the %d-entry dictionary",
		e.Unique, e.Max)
}

// Compressed is a dictionary-compressed code region.
type Compressed struct {
	Bits    IndexBits
	Dict    []uint32 // dictionary entries, most frequent first
	Indices []uint16 // one index per instruction
}

// Compress builds the dictionary for text (little-endian 32-bit
// instruction words) and encodes every instruction. Entries are assigned
// by descending frequency (ties broken by first appearance) so the hot
// dictionary lines stay dense in the D-cache during decompression.
func Compress(text []byte, bits IndexBits) (*Compressed, error) {
	if len(text)%4 != 0 {
		return nil, fmt.Errorf("dict: text length %d not a multiple of 4", len(text))
	}
	n := len(text) / 4
	// Number the distinct words in order of first appearance. indices
	// holds each instruction's word id until the ranking below rewrites
	// it in place; ids past 16 bits only arise when the dictionary is
	// full, which returns before they are read.
	ids := make(map[uint32]int32, n/4)
	var distinct []uint32
	var counts []int32
	indices := make([]uint16, n)
	for i := 0; i < n; i++ {
		w := binary.LittleEndian.Uint32(text[4*i:])
		id, ok := ids[w]
		if !ok {
			id = int32(len(distinct))
			ids[w] = id
			distinct = append(distinct, w)
			counts = append(counts, 0)
		}
		counts[id]++
		indices[i] = uint16(id)
	}
	if len(distinct) > bits.MaxEntries() {
		return nil, &ErrDictionaryFull{Unique: len(distinct), Max: bits.MaxEntries()}
	}
	// A stable sort by count keeps equal counts in first-appearance order.
	order := make([]uint16, len(distinct))
	for id := range order {
		order[id] = uint16(id)
	}
	sort.SliceStable(order, func(i, j int) bool { return counts[order[i]] > counts[order[j]] })
	dict := make([]uint32, len(order))
	rank := make([]uint16, len(order))
	for r, id := range order {
		dict[r] = distinct[id]
		rank[id] = uint16(r)
	}
	for i, id := range indices {
		indices[i] = rank[id]
	}
	return &Compressed{Bits: bits, Dict: dict, Indices: indices}, nil
}

// DictBytes serialises the dictionary as little-endian 32-bit words.
func (c *Compressed) DictBytes() []byte {
	out := make([]byte, 4*len(c.Dict))
	for i, w := range c.Dict {
		binary.LittleEndian.PutUint32(out[4*i:], w)
	}
	return out
}

// IndexBytes serialises the index stream: 2 bytes per instruction for
// Index16, 1 byte for Index8.
func (c *Compressed) IndexBytes() []byte {
	switch c.Bits {
	case Index8:
		out := make([]byte, len(c.Indices))
		for i, x := range c.Indices {
			out[i] = byte(x)
		}
		return out
	default:
		out := make([]byte, 2*len(c.Indices))
		for i, x := range c.Indices {
			binary.LittleEndian.PutUint16(out[2*i:], x)
		}
		return out
	}
}

// CompressedSize returns dictionary plus index bytes, the quantity the
// paper reports as "dictionary compressed size".
func (c *Compressed) CompressedSize() int {
	return len(c.DictBytes()) + len(c.IndexBytes())
}

// Ratio returns compressed size / original size (Equation 1).
func (c *Compressed) Ratio() float64 {
	if len(c.Indices) == 0 {
		return 1
	}
	return float64(c.CompressedSize()) / float64(4*len(c.Indices))
}

// Decompress is the reference (non-simulated) decoder used by tests: it
// must reproduce the original text exactly.
func (c *Compressed) Decompress() []byte {
	out := make([]byte, 4*len(c.Indices))
	for i, x := range c.Indices {
		binary.LittleEndian.PutUint32(out[4*i:], c.Dict[x])
	}
	return out
}

// ShiftFor returns the right-shift that maps a native byte offset to an
// index-stream byte offset (1 for 16-bit indices: offset/2; 2 for 8-bit).
// The software decompressor uses this to avoid a mapping table (§3.1).
func (c *Compressed) ShiftFor() uint {
	if c.Bits == Index8 {
		return 2
	}
	return 1
}
