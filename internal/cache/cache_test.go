package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

var icacheCfg = Config{SizeBytes: 16 * 1024, LineBytes: 32, Ways: 2}

func TestConfigValidate(t *testing.T) {
	if err := icacheCfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{SizeBytes: 0, LineBytes: 32, Ways: 2},
		{SizeBytes: 1000, LineBytes: 32, Ways: 2},
		{SizeBytes: 1024, LineBytes: 48, Ways: 2},
		{SizeBytes: 64, LineBytes: 64, Ways: 2},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
	if got := icacheCfg.Sets(); got != 256 {
		t.Fatalf("Sets = %d, want 256", got)
	}
}

func TestBasicHitMiss(t *testing.T) {
	c := MustNew(icacheCfg, true)
	if c.Access(0x400000) {
		t.Fatal("cold miss expected")
	}
	line := make([]byte, 32)
	line[0] = 0xAB
	c.Fill(0x400000, line)
	if !c.Access(0x400000) || !c.Access(0x40001C) {
		t.Fatal("hit expected after fill")
	}
	if c.Access(0x400020) {
		t.Fatal("next line should miss")
	}
	if c.Stats.Accesses != 4 || c.Stats.Misses != 2 {
		t.Fatalf("stats %+v", c.Stats)
	}
	if w, ok := c.ReadWord(0x400000); !ok || w != 0xAB {
		t.Fatalf("ReadWord = %#x,%v", w, ok)
	}
}

func TestLRUReplacement(t *testing.T) {
	// 2-way: three lines mapping to the same set evict the least recently
	// used one.
	c := MustNew(Config{SizeBytes: 128, LineBytes: 32, Ways: 2}, false)
	setStride := uint32(c.Config().Sets() * 32)
	a, b, d := uint32(0), setStride, 2*setStride
	c.Access(a)
	c.Fill(a, nil)
	c.Access(b)
	c.Fill(b, nil)
	c.Access(a) // a now MRU
	c.Access(d) // miss
	c.Fill(d, nil)
	if !c.Probe(a) {
		t.Fatal("a (MRU) must survive")
	}
	if c.Probe(b) {
		t.Fatal("b (LRU) must be evicted")
	}
	if c.Stats.Evictions != 1 {
		t.Fatalf("evictions = %d", c.Stats.Evictions)
	}
}

func TestSwicClaimsLine(t *testing.T) {
	c := MustNew(icacheCfg, true)
	addr := uint32(0x800000)
	claimed := c.WriteWord(addr, 0x11111111)
	if !claimed {
		t.Fatal("first swic must claim the line")
	}
	if c.WriteWord(addr+4, 0x22222222) {
		t.Fatal("second swic to same line must not claim")
	}
	if !c.Probe(addr) {
		t.Fatal("line must be present after swic")
	}
	if w, _ := c.ReadWord(addr + 4); w != 0x22222222 {
		t.Fatalf("word = %#x", w)
	}
	// Unwritten words of a claimed line read as zero.
	if w, _ := c.ReadWord(addr + 8); w != 0 {
		t.Fatalf("unwritten word = %#x", w)
	}
	if c.Stats.SwicLines != 1 {
		t.Fatalf("SwicLines = %d", c.Stats.SwicLines)
	}
}

func TestSwicEvictedLineIsZeroed(t *testing.T) {
	// A line evicted and re-claimed must not expose stale bytes.
	c := MustNew(Config{SizeBytes: 64, LineBytes: 32, Ways: 1}, true)
	c.WriteWord(0x1000, 0xAAAAAAAA)
	c.WriteWord(0x1004, 0xBBBBBBBB)
	// Same set, different tag: evicts.
	c.WriteWord(0x2000, 0xCCCCCCCC)
	if w, _ := c.ReadWord(0x2004); w != 0 {
		t.Fatalf("stale data leaked: %#x", w)
	}
}

func TestLineBase(t *testing.T) {
	c := MustNew(icacheCfg, false)
	if c.LineBase(0x40001F) != 0x400000 || c.LineBase(0x400020) != 0x400020 {
		t.Fatal("LineBase wrong")
	}
}

// Property: after Fill(addr), Probe(addr') is true for every addr' in the
// same line, and the number of valid lines never exceeds capacity.
func TestQuickFillProbe(t *testing.T) {
	c := MustNew(Config{SizeBytes: 1024, LineBytes: 32, Ways: 2}, false)
	f := func(addr uint32) bool {
		addr &^= 3
		c.Fill(addr, nil)
		base := c.LineBase(addr)
		for o := uint32(0); o < 32; o += 4 {
			if !c.Probe(base + o) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: a data-storing cache returns exactly the bytes last written to
// a line, no matter the interleaving of fills and swic writes.
func TestQuickDataFidelity(t *testing.T) {
	c := MustNew(Config{SizeBytes: 512, LineBytes: 16, Ways: 2}, true)
	shadow := map[uint32]uint32{} // word addr -> value, for present lines only
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 50000; i++ {
		addr := uint32(r.Intn(64)) * 4 // small space to force conflicts
		switch r.Intn(3) {
		case 0: // swic
			v := r.Uint32()
			base := c.LineBase(addr)
			if !c.Probe(base) {
				// claiming a new line: forget shadow of whatever was evicted
				// (detect below by re-checking presence)
				for a := range shadow {
					if !c.Probe(a) {
						delete(shadow, a)
					}
				}
				for o := uint32(0); o < 16; o += 4 {
					shadow[base+o] = 0
				}
			}
			c.WriteWord(addr, v)
			shadow[addr] = v
		case 1: // fill with pattern
			base := c.LineBase(addr)
			data := make([]byte, 16)
			for j := range data {
				data[j] = byte(r.Intn(256))
			}
			c.Fill(base, data)
			for a := range shadow {
				if !c.Probe(a) {
					delete(shadow, a)
				}
			}
			for o := uint32(0); o < 16; o += 4 {
				shadow[base+o] = uint32(data[o]) | uint32(data[o+1])<<8 |
					uint32(data[o+2])<<16 | uint32(data[o+3])<<24
			}
		case 2: // read & verify
			if want, ok := shadow[addr]; ok && c.Probe(addr) {
				if got, ok2 := c.ReadWord(addr); !ok2 || got != want {
					t.Fatalf("iter %d: word %#x = %#x, want %#x", i, addr, got, want)
				}
			}
		}
	}
}

// TestAssociativitySweep checks the classic geometry result: for a
// cyclic working set larger than one way but smaller than the cache,
// higher associativity cannot increase conflict misses at equal size.
func TestAssociativitySweep(t *testing.T) {
	misses := func(ways int) uint64 {
		c := MustNew(Config{SizeBytes: 1024, LineBytes: 32, Ways: ways}, false)
		// Two rounds over 24 lines (768B) in a 1KB cache.
		for round := 0; round < 4; round++ {
			for i := 0; i < 24; i++ {
				addr := uint32(i * 32)
				if !c.Access(addr) {
					c.Fill(addr, nil)
				}
			}
		}
		return c.Stats.Misses
	}
	m1, m2, m4 := misses(1), misses(2), misses(4)
	// Fully-fitting working set: with enough associativity only the 24
	// cold misses remain.
	if m4 != 24 {
		t.Fatalf("4-way misses = %d, want cold-only 24", m4)
	}
	if m2 < m4 || m1 < m2 {
		t.Fatalf("associativity should not hurt here: %d/%d/%d", m1, m2, m4)
	}
}

// TestDirectMappedConflict demonstrates the pathological cyclic case:
// two lines aliasing one set thrash a direct-mapped cache but coexist in
// a 2-way cache.
func TestDirectMappedConflict(t *testing.T) {
	run := func(ways int) uint64 {
		c := MustNew(Config{SizeBytes: 256, LineBytes: 32, Ways: ways}, false)
		stride := uint32(c.Config().Sets() * 32)
		for i := 0; i < 50; i++ {
			for _, a := range []uint32{0, stride} {
				if !c.Access(a) {
					c.Fill(a, nil)
				}
			}
		}
		return c.Stats.Misses
	}
	if dm := run(1); dm != 100 {
		t.Fatalf("direct-mapped should thrash: %d misses", dm)
	}
	if tw := run(2); tw != 2 {
		t.Fatalf("2-way should hold both: %d misses", tw)
	}
}
