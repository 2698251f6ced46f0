package codec

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/compress/dict"
	"repro/internal/program"
)

// refSpill is the map-based Spill the word table replaced, kept as the
// reference the codec's answer must match.
func refSpill(bits dict.IndexBits, text *program.Segment, procs []program.Procedure) int {
	capacity := bits.MaxEntries() - 1
	seen := make(map[uint32]bool, capacity)
	for i, p := range procs {
		for a := uint64(p.Addr); a+4 <= p.End(); a += 4 {
			w := text.Word(uint32(a))
			if !seen[w] {
				if len(seen) >= capacity {
					return len(procs) - i
				}
				seen[w] = true
			}
		}
	}
	return 0
}

// spillCase lays words out as one text segment cut into procedures of
// the given sizes in words.
func spillCase(words []uint32, sizes []int) (*program.Segment, []program.Procedure) {
	text := &program.Segment{Name: program.SegText, Base: program.NativeBase, Data: make([]byte, 4*len(words))}
	for i, w := range words {
		binary.LittleEndian.PutUint32(text.Data[4*i:], w)
	}
	var procs []program.Procedure
	addr := text.Base
	for i, n := range sizes {
		procs = append(procs, program.Procedure{Name: fmt.Sprintf("p%d", i), Addr: addr, Size: uint32(4 * n)})
		addr += uint32(4 * n)
	}
	return text, procs
}

// checkSpill holds both dictionary codecs' Spill to the reference and,
// when want >= 0, to want under the codec of the given width.
func checkSpill(t *testing.T, name string, words []uint32, sizes []int, bits dict.IndexBits, want int) {
	t.Helper()
	text, procs := spillCase(words, sizes)
	for _, c := range []*dictCodec{{bits: dict.Index16}, {bits: dict.Index8}} {
		got, ref := c.Spill(text, procs), refSpill(c.bits, text, procs)
		if got != ref {
			t.Errorf("%s/%d-bit: Spill = %d, reference %d", name, c.bits, got, ref)
		}
		if c.bits == bits && want >= 0 && got != want {
			t.Errorf("%s/%d-bit: Spill = %d, want %d", name, c.bits, got, want)
		}
	}
}

// distinctThenRepeats returns unique distinct words followed by repeats
// of them up to total words.
func distinctThenRepeats(unique, total int) []uint32 {
	words := make([]uint32, total)
	for i := range words {
		words[i] = uint32(i%unique) * 2654435761
	}
	return words
}

// TestSpillBoundaries pins Spill where the dictionary just fits, just
// overflows, and overflows on the first procedure, for both widths.
func TestSpillBoundaries(t *testing.T) {
	for _, bits := range []dict.IndexBits{dict.Index16, dict.Index8} {
		capacity := bits.MaxEntries() - 1
		total := capacity + capacity/2 // past the word-count shortcut
		thirds := []int{total / 3, total / 3, total - 2*(total/3)}
		checkSpill(t, fmt.Sprintf("at-capacity/%d", bits),
			distinctThenRepeats(capacity, total), thirds, bits, 0)
		// The distinct word past the capacity sits in the last procedure.
		over := distinctThenRepeats(capacity, total)
		over[len(over)-1] = 0xFFFFFFFF
		checkSpill(t, fmt.Sprintf("capacity+1/%d", bits), over, thirds, bits, 1)
		// All distinct words in the first procedure.
		first := distinctThenRepeats(capacity+1, total)
		checkSpill(t, fmt.Sprintf("first-proc/%d", bits),
			first, []int{capacity + 1, total - capacity - 2, 1}, bits, 3)
		// As many words as the capacity: nothing can spill. One more
		// word, distinct, spills the procedure holding it.
		checkSpill(t, fmt.Sprintf("word-count/%d", bits),
			distinctThenRepeats(capacity, capacity), []int{capacity}, bits, 0)
		checkSpill(t, fmt.Sprintf("word-count+1/%d", bits),
			distinctThenRepeats(capacity+1, capacity+1), []int{capacity, 1}, bits, 1)
	}
}

// TestSpillMatchesReference holds Spill to the reference on random
// procedure tables whose distinct words straddle both capacities.
func TestSpillMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		bits := dict.Index8
		if trial%4 == 0 {
			bits = dict.Index16
		}
		capacity := bits.MaxEntries() - 1
		pool := capacity - capacity/8 + r.Intn(capacity/4)
		total := pool + r.Intn(2*pool)
		words := make([]uint32, total)
		for i := range words {
			words[i] = uint32(r.Intn(pool)) * 40503
		}
		var sizes []int
		for left := total; left > 0; {
			n := min(left, 1+r.Intn(total/4+1))
			sizes = append(sizes, n)
			left -= n
		}
		checkSpill(t, fmt.Sprintf("trial %d", trial), words, sizes, bits, -1)
	}
}
