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

	"repro/internal/compress/rank"
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
	// full, which returns before they are read. Programs repeat most
	// words (the stand-ins hold one distinct word per three to seven),
	// so the table starts with room for n/4 and grows if it must.
	words := NewWordTable(n / 4)
	var counts []int32
	indices := make([]uint16, n)
	for i := 0; i < n; i++ {
		id, added := words.Add(binary.LittleEndian.Uint32(text[4*i:]))
		if added {
			counts = append(counts, 0)
		}
		counts[id]++
		indices[i] = uint16(id)
	}
	if len(counts) > bits.MaxEntries() {
		return nil, &ErrDictionaryFull{Unique: len(counts), Max: bits.MaxEntries()}
	}
	dict := make([]uint32, len(counts))
	ranks := make([]uint16, len(counts))
	for r, id := range rank.ByCount(counts) {
		dict[r] = words.words[id]
		ranks[id] = uint16(r)
	}
	for i, id := range indices {
		indices[i] = ranks[id]
	}
	return &Compressed{Bits: bits, Dict: dict, Indices: indices}, nil
}

// WordTable numbers distinct 32-bit words in order of first appearance,
// in an open-addressing table with linear probing.
type WordTable struct {
	words []uint32 // the distinct words, indexed by id
	slots []uint64 // word<<32 | id+1; 0 marks an empty slot
	shift uint     // 64 - log2(len(slots))
}

// NewWordTable returns a table with room for n distinct words, at most
// half full; it grows past them.
func NewWordTable(n int) *WordTable {
	t := &WordTable{}
	t.resize(2 * n)
	return t
}

// resize rehashes the words into the smallest power-of-two table of at
// least size slots.
func (t *WordTable) resize(size int) {
	logSize := uint(1)
	for 1<<logSize < size {
		logSize++
	}
	t.slots = make([]uint64, 1<<logSize)
	t.shift = 64 - logSize
	for id, w := range t.words {
		i := t.find(w)
		t.slots[i] = uint64(w)<<32 | uint64(id+1)
	}
}

// find returns the slot holding w, or the empty slot where it belongs.
func (t *WordTable) find(w uint32) int {
	mask := len(t.slots) - 1
	// Fibonacci hashing: the multiply spreads every bit of w into the
	// top bits the shift keeps.
	i := int(uint64(w) * 0x9E3779B97F4A7C15 >> t.shift)
	for t.slots[i] != 0 && uint32(t.slots[i]>>32) != w {
		i = (i + 1) & mask
	}
	return i
}

// Len returns the number of distinct words added.
func (t *WordTable) Len() int { return len(t.words) }

// Add returns w's id, numbering it next if it is new.
func (t *WordTable) Add(w uint32) (id int, added bool) {
	i := t.find(w)
	if s := t.slots[i]; s != 0 {
		return int(uint32(s)) - 1, false
	}
	t.words = append(t.words, w)
	t.slots[i] = uint64(w)<<32 | uint64(len(t.words))
	if 2*len(t.words) > len(t.slots) {
		t.resize(2 * len(t.slots))
	}
	return len(t.words) - 1, true
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

// Decompress is the reference (non-simulated) decoder used by tests: it
// must reproduce the original text exactly.
func (c *Compressed) Decompress() []byte {
	out := make([]byte, 4*len(c.Indices))
	for i, x := range c.Indices {
		binary.LittleEndian.PutUint32(out[4*i:], c.Dict[x])
	}
	return out
}
