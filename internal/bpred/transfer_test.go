package bpred

import (
	"math/rand"
	"slices"
	"testing"
)

// TestTransferMatchesUpdate compiles random outcome sequences over a
// few PCs, several of which alias to one counter, into one Transfer
// per counter, and applies them from every start state of every
// counter: the table, Lookups and Mispredicts must be those of calling
// Update once per outcome, and Apply's result the mispredicts added.
func TestTransferMatchesUpdate(t *testing.T) {
	const entries = 16
	// 0x40 and 0x80 alias 0x0 in a 16-entry table; 0x44 aliases 0x4.
	pcs := []uint32{0x0, 0x40, 0x80, 0x4, 0x44, 0x8}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 500; round++ {
		type branch struct {
			pc    uint32
			taken bool
		}
		seq := make([]branch, rng.Intn(60))
		for i := range seq {
			seq[i] = branch{pcs[rng.Intn(len(pcs))], rng.Intn(3) != 0}
		}
		var steps []Transfer
		at := map[uint32]int{}
		ref := New(entries)
		for _, b := range seq {
			i := ref.idx(b.pc)
			if _, ok := at[i]; !ok {
				at[i] = len(steps)
				steps = append(steps, ref.Transfer(b.pc))
			}
			steps[at[i]].Add(b.taken)
		}
		for start := uint8(0); start < 4; start++ {
			want, got := New(entries), New(entries)
			for i := range want.table {
				want.table[i] = (start + uint8(i)) & 3
			}
			copy(got.table, want.table)
			want.Lookups, want.Mispredicts = 7, 3
			got.Lookups, got.Mispredicts = 7, 3
			for _, b := range seq {
				want.Update(b.pc, b.taken)
			}
			var miss uint64
			for i := len(steps) - 1; i >= 0; i-- { // any order
				miss += got.Apply(&steps[i])
			}
			if !slices.Equal(got.table, want.table) || got.Lookups != want.Lookups || got.Mispredicts != want.Mispredicts {
				t.Fatalf("round %d, start %d: applied table %v, %d lookups, %d mispredicts; updated %v, %d, %d",
					round, start, got.table, got.Lookups, got.Mispredicts, want.table, want.Lookups, want.Mispredicts)
			}
			if miss != want.Mispredicts-3 {
				t.Fatalf("round %d, start %d: Apply returned %d mispredicts, want %d", round, start, miss, want.Mispredicts-3)
			}
		}
	}
}

// TestTransferIdentity: a Transfer of no branches changes nothing but
// is still a valid step.
func TestTransferIdentity(t *testing.T) {
	p := New(4)
	for s := uint8(0); s < 4; s++ {
		p.table[1] = s
		tr := p.Transfer(0x4)
		if m := p.Apply(&tr); m != 0 || p.table[1] != s || p.Lookups != 0 {
			t.Fatalf("start %d: empty transfer left state %d, %d lookups, %d mispredicts", s, p.table[1], p.Lookups, m)
		}
	}
}
