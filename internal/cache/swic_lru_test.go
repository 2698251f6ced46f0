package cache

// Edge cases of swic interacting with replacement: the decompression
// handler claims lines with explicit writes rather than hardware fills,
// and those claims must participate in LRU exactly like fills — the
// paper's slowdown numbers depend on decompressed lines not being
// preferentially evicted (or wrongly pinned).

import (
	"reflect"
	"testing"
)

// fourWay returns a small 4-way cache with data storage (I-cache mode):
// 4 ways x 2 sets x 16-byte lines.
func fourWay(t *testing.T) *Cache {
	t.Helper()
	c, err := New(Config{SizeBytes: 128, LineBytes: 16, Ways: 4}, true)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// setAddr returns the i-th distinct line address mapping to set 0.
func setAddr(c *Cache, i int) uint32 {
	sets := uint32(c.Config().Sets())
	return uint32(i) * sets * uint32(c.Config().LineBytes)
}

// TestSwicEvictionOrderInFullSet fills a set with four swic-claimed
// lines, touches them in a known order, and verifies further claims
// evict exactly in LRU order.
func TestSwicEvictionOrderInFullSet(t *testing.T) {
	c := fourWay(t)
	// Claim lines 0..3 -> set full, LRU order = claim order.
	for i := 0; i < 4; i++ {
		if !c.WriteWord(setAddr(c, i), uint32(0x100+i)) {
			t.Fatalf("claim %d: line already present", i)
		}
	}
	if c.Stats.SwicLines != 4 {
		t.Fatalf("SwicLines = %d, want 4", c.Stats.SwicLines)
	}
	if c.Stats.Evictions != 0 {
		t.Fatalf("%d evictions while the set had free ways", c.Stats.Evictions)
	}
	// Touch 0 and 1 via fetch hits: LRU victim order becomes 2, 3, 0, 1.
	for _, i := range []int{0, 1} {
		if !c.Access(setAddr(c, i)) {
			t.Fatalf("line %d should hit", i)
		}
	}
	for n, want := range []int{2, 3, 0, 1} {
		if !c.WriteWord(setAddr(c, 4+n), 0xDEAD) {
			t.Fatalf("claim %d: expected a new line", 4+n)
		}
		if c.Probe(setAddr(c, want)) {
			t.Fatalf("claim %d should have evicted line %d", 4+n, want)
		}
		// The other original lines that are not yet evicted must survive.
		for _, keep := range []int{2, 3, 0, 1}[n+1:] {
			if !c.Probe(setAddr(c, keep)) {
				t.Fatalf("claim %d wrongly evicted line %d", 4+n, keep)
			}
		}
	}
	if c.Stats.Evictions != 4 {
		t.Fatalf("Evictions = %d, want 4", c.Stats.Evictions)
	}
}

// TestSwicWriteToPresentLineRefreshesLRU: writing a word into an
// already-claimed line is a touch, not a claim — it must refresh LRU and
// must not count a new swic line.
func TestSwicWriteToPresentLineRefreshesLRU(t *testing.T) {
	c := fourWay(t)
	for i := 0; i < 4; i++ {
		c.WriteWord(setAddr(c, i), uint32(i))
	}
	// Re-write line 0 (completing a decompressed line word by word).
	if c.WriteWord(setAddr(c, 0)+4, 0xBEEF) {
		t.Fatal("write to a present line must not claim")
	}
	if c.Stats.SwicLines != 4 {
		t.Fatalf("SwicLines = %d, want 4", c.Stats.SwicLines)
	}
	// Next claim must evict line 1 (now the oldest), not line 0.
	c.WriteWord(setAddr(c, 4), 1)
	if !c.Probe(setAddr(c, 0)) {
		t.Fatal("refreshed line 0 was evicted")
	}
	if c.Probe(setAddr(c, 1)) {
		t.Fatal("line 1 should have been the LRU victim")
	}
	// Both words of line 0 are intact.
	if w, ok := c.ReadWord(setAddr(c, 0)); !ok || w != 0 {
		t.Fatalf("line 0 word 0 = %#x, %v", w, ok)
	}
	if w, ok := c.ReadWord(setAddr(c, 0) + 4); !ok || w != 0xBEEF {
		t.Fatalf("line 0 word 1 = %#x, %v", w, ok)
	}
}

// TestSwicClaimZeroesRecycledData: a swic claim that recycles an evicted
// line's buffer must present zeroes for the words not yet written — the
// handler relies on never leaking a stale victim's instructions.
func TestSwicClaimZeroesRecycledData(t *testing.T) {
	c := fourWay(t)
	for i := 0; i < 4; i++ {
		for off := uint32(0); off < 16; off += 4 {
			c.WriteWord(setAddr(c, i)+off, 0xFFFFFFFF)
		}
	}
	// Claim a fifth line, writing only its first word.
	c.WriteWord(setAddr(c, 4), 0x1234)
	for off := uint32(4); off < 16; off += 4 {
		if w, ok := c.ReadWord(setAddr(c, 4) + off); !ok || w != 0 {
			t.Fatalf("recycled line offset %d = %#x (ok=%v), want 0", off, w, ok)
		}
	}
}

// TestSwicMixedWithFillsSharesLRU: hardware fills and swic claims
// compete for the same ways under one LRU clock.
func TestSwicMixedWithFillsSharesLRU(t *testing.T) {
	c := fourWay(t)
	data := make([]byte, 16)
	c.Fill(setAddr(c, 0), data) // oldest
	c.WriteWord(setAddr(c, 1), 1)
	c.Fill(setAddr(c, 2), data)
	c.WriteWord(setAddr(c, 3), 3)
	// A new fill must evict the oldest entry, the hardware-filled line 0.
	c.Fill(setAddr(c, 4), data)
	if c.Probe(setAddr(c, 0)) {
		t.Fatal("line 0 (oldest) survived")
	}
	for _, keep := range []int{1, 2, 3, 4} {
		if !c.Probe(setAddr(c, keep)) {
			t.Fatalf("line %d wrongly evicted", keep)
		}
	}
	// And a swic claim evicts the next-oldest, line 1.
	c.WriteWord(setAddr(c, 5), 5)
	if c.Probe(setAddr(c, 1)) {
		t.Fatal("line 1 (next oldest) survived")
	}
}

// countingObs counts the observer's events.
type countingObs struct{ misses, evicts int }

func (o *countingObs) CacheMiss(int, bool) { o.misses++ }
func (o *countingObs) CacheEvict(int)      { o.evicts++ }

// TestWriteLineIsWriteWords runs random runs of swic words, each run in
// one line and the lines drawn from a few that share a set, through
// WriteLine on one cache and WriteWord on another: the snapshots (LRU
// stamps and clock included), the returned slot, the derived bits and
// the observer's events must agree.
func TestWriteLineIsWriteWords(t *testing.T) {
	a, b := fourWay(t), fourWay(t)
	var oa, ob countingObs
	a.Obs, b.Obs = &oa, &ob
	rng := uint32(1)
	next := func(n uint32) uint32 {
		rng = rng*1664525 + 1013904223
		return rng >> 8 % n
	}
	for round := 0; round < 2000; round++ {
		base := setAddr(a, int(next(6))) + next(2)*16 // six lines of set 0, two of set 1
		var w []uint32
		for k := next(6) + 1; k > 0; k-- {
			w = append(w, base+4*next(4), next(1<<20))
		}
		if next(3) == 0 { // a hit or a fill between runs
			addr := setAddr(a, int(next(6)))
			a.Access(addr)
			b.Access(addr)
		}
		for _, c := range []*Cache{a, b} {
			if s := c.Slot(base); s >= 0 {
				c.SetDerived(s)
			}
		}
		s := a.WriteLine(w)
		for i := 0; i < len(w); i += 2 {
			b.WriteWord(w[i], w[i+1])
		}
		if bs := b.Slot(base); s != bs || a.Derived(s) || b.Derived(bs) {
			t.Fatalf("round %d: WriteLine slot %d (derived %v), WriteWord slot %d (derived %v)",
				round, s, a.Derived(s), bs, b.Derived(bs))
		}
		if !reflect.DeepEqual(a.Snapshot(), b.Snapshot()) || oa != ob {
			t.Fatalf("round %d: WriteLine left %+v (observer %+v), WriteWord %+v (observer %+v)",
				round, a.Snapshot(), oa, b.Snapshot(), ob)
		}
	}
	if a.Stats.Evictions == 0 || a.Stats.SwicLines == 0 {
		t.Fatalf("the runs never claimed or evicted a line: %+v", a.Stats)
	}
}
