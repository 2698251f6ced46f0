package cache

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// TestDerivedClearedOnEveryChange: every method that changes a line's
// identity or contents clears its derived bit, and the methods that
// only look at or count a line leave it set. Clients (the CPU's
// predecoded records) rely on this as their whole coherence rule.
func TestDerivedClearedOnEveryChange(t *testing.T) {
	const a = 0x400000
	other := a + uint32(icacheCfg.Sets()*icacheCfg.LineBytes) // same set, other tag
	third := other + uint32(icacheCfg.Sets()*icacheCfg.LineBytes)
	line := make([]byte, icacheCfg.LineBytes)

	// setup returns a cache holding a's line with its derived bit set.
	setup := func(t *testing.T) (*Cache, int) {
		t.Helper()
		c := MustNew(icacheCfg, true)
		c.Fill(a, line)
		s := c.Slot(a)
		if s < 0 {
			t.Fatal("filled line not found")
		}
		c.SetDerived(s)
		if !c.Derived(s) {
			t.Fatal("SetDerived did not set the bit")
		}
		return c, s
	}
	clears := []struct {
		name string
		op   func(c *Cache)
	}{
		{"Fill same base", func(c *Cache) { c.Fill(a, line) }},
		{"Fill evicting", func(c *Cache) { c.Fill(other, line); c.Fill(third, line) }},
		{"WriteWord resident", func(c *Cache) { c.WriteWord(a+4, 1) }},
		{"WriteWord claim evicting", func(c *Cache) { c.WriteWord(other, 1); c.WriteWord(third, 1) }},
		{"Restore", func(c *Cache) {
			if err := c.Restore(c.Snapshot()); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range clears {
		t.Run(tc.name, func(t *testing.T) {
			c, s := setup(t)
			tc.op(c)
			if c.Derived(s) {
				t.Errorf("%s left slot %d derived", tc.name, s)
			}
		})
	}
	keeps := []struct {
		name string
		op   func(c *Cache)
	}{
		{"Access", func(c *Cache) { c.Access(a) }},
		{"Lookup", func(c *Cache) { c.Lookup(a + 4) }},
		{"Hits", func(c *Cache) { c.Hits(c.Slot(a), 3) }},
		{"Probe", func(c *Cache) { c.Probe(a) }},
		{"ReadWord", func(c *Cache) { c.ReadWord(a) }},
		{"Snapshot", func(c *Cache) { c.Snapshot() }},
		{"Fill other set", func(c *Cache) { c.Fill(a+uint32(icacheCfg.LineBytes), line) }},
	}
	for _, tc := range keeps {
		t.Run(tc.name, func(t *testing.T) {
			c, s := setup(t)
			tc.op(c)
			if !c.Derived(s) {
				t.Errorf("%s cleared slot %d's derived bit", tc.name, s)
			}
		})
	}
}

// TestSlotAPI pins the slot numbering and the slot accessors against
// their address-based counterparts.
func TestSlotAPI(t *testing.T) {
	cfg := Config{SizeBytes: 256, LineBytes: 32, Ways: 2} // 4 sets
	c := MustNew(cfg, true)
	line := bytes.Repeat([]byte{0x5A}, 32)
	if c.Lookup(0x1000) != -1 || c.Slot(0x1000) != -1 {
		t.Fatal("cold cache reports a slot")
	}
	c.Fill(0x1040, line) // set 2
	s := c.Slot(0x1040)
	if s/cfg.Ways != 2 {
		t.Fatalf("slot = %d, want set*ways+way in set 2", s)
	}
	if got := c.Lookup(0x105C); got != s {
		t.Fatalf("Lookup = %d, want %d", got, s)
	}
	if !bytes.Equal(c.SlotData(s), line) {
		t.Fatal("SlotData differs from the filled line")
	}
	c.WriteWord(0x1044, 0x01020304)
	if binary.LittleEndian.Uint32(c.SlotData(s)[4:]) != 0x01020304 {
		t.Fatal("SlotData is not the live line")
	}

	// Hits(s, n) has exactly n Accesses' counter, clock and LRU effects.
	c, ref := MustNew(cfg, true), MustNew(cfg, true)
	for _, x := range []*Cache{c, ref} {
		x.Fill(0x1040, line)
		x.Fill(0x1040+128, line) // the set's other way
	}
	for range 3 {
		ref.Access(0x1040)
	}
	c.Hits(c.Slot(0x1040), 3)
	if c.Stats != ref.Stats {
		t.Fatalf("Hits stats %+v, Access stats %+v", c.Stats, ref.Stats)
	}
	if c.Snapshot().Clock != ref.Snapshot().Clock {
		t.Fatalf("Hits left clock %d, Accesses %d", c.Snapshot().Clock, ref.Snapshot().Clock)
	}
	// The LRU victim is now the second way in both caches.
	ref.Fill(0x1040+256, line)
	c.Fill(0x1040+256, line)
	if c.Probe(0x1040+128) || !c.Probe(0x1040) || ref.Probe(0x1040+128) || !ref.Probe(0x1040) {
		t.Fatal("Hits did not refresh LRU like Access")
	}
}

// TestProbeUsesMRUHintCoherently: the MRU hint Probe consults never
// reports a line that has since left the cache.
func TestProbeUsesMRUHintCoherently(t *testing.T) {
	c := MustNew(Config{SizeBytes: 64, LineBytes: 32, Ways: 1}, false)
	c.Fill(0, nil)
	if !c.Access(0) || !c.Probe(4) {
		t.Fatal("resident line not seen")
	}
	c.Fill(64, nil) // evicts line 0 from the single-way set
	if c.Probe(0) {
		t.Fatal("Probe saw an evicted line through the MRU hint")
	}
}
