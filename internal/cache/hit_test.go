package cache

import (
	"math/rand"
	"reflect"
	"testing"
)

// countObs counts the observer events a cache reports.
type countObs struct{ miss, conflict, evict int }

func (o *countObs) CacheMiss(set int, conflict bool) {
	o.miss++
	if conflict {
		o.conflict++
	}
}

func (o *countObs) CacheEvict(set int) { o.evict++ }

// TestHitEquivalentToAccess runs random operation traces on the paper's
// I-cache (16K/32B/2-way, with data) and D-cache (8K/16B/2-way,
// presence only) geometries, on two caches at once: the reference
// probes with Access, the other with Hit and, when Hit misses, Access.
// Every other operation (Fill, WriteWord, WriteLine) is applied to
// both. After each step the two must agree on the probe's answer,
// Stats, Snapshot() and the observer's events, so every later victim
// choice agrees too; Fill and WriteLine must return the slot that Slot
// then reports, the same in both. The addresses are a few tags in a
// few sets, so the sets fill and evict.
func TestHitEquivalentToAccess(t *testing.T) {
	for _, g := range []struct {
		name  string
		cfg   Config
		store bool
	}{
		{"icache", Config{SizeBytes: 16 << 10, LineBytes: 32, Ways: 2}, true},
		{"dcache", Config{SizeBytes: 8 << 10, LineBytes: 16, Ways: 2}, false},
	} {
		t.Run(g.name, func(t *testing.T) {
			for seed := int64(1); seed <= 6; seed++ {
				hitTrace(t, g.cfg, g.store, seed, 500)
			}
		})
	}
}

func hitTrace(t *testing.T, cfg Config, store bool, seed int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ref, got := MustNew(cfg, store), MustNew(cfg, store)
	var refObs, gotObs countObs
	ref.Obs, got.Obs = &refObs, &gotObs
	lb := uint32(cfg.LineBytes)
	span := uint32(cfg.Sets()) * lb // one address per set and tag
	// addr is a word in one of 3 sets under one of 4 tags.
	addr := func() uint32 {
		return 0x400000 + uint32(rng.Intn(4))*span + uint32(rng.Intn(3))*lb + uint32(rng.Intn(int(lb/4)))*4
	}
	line := make([]byte, cfg.LineBytes)
	var data []byte
	if store {
		data = line
	}
	for step := 0; step < steps; step++ {
		a := addr()
		var op string
		switch k := rng.Intn(17); {
		case k < 10:
			op = "probe"
			want := ref.Access(a)
			hit := got.Hit(a)
			if !hit && got.Access(a) {
				t.Fatalf("seed %d step %d: Hit(%#x) missed a present line", seed, step, a)
			}
			if hit != want {
				t.Fatalf("seed %d step %d: Hit(%#x) = %v, Access = %v", seed, step, a, hit, want)
			}
		case k < 13:
			op = "Fill"
			rng.Read(line)
			s, s2 := ref.Fill(a, data), got.Fill(a, data)
			if s != s2 || s != got.Slot(a) {
				t.Fatalf("seed %d step %d: Fill(%#x) returned slots %d and %d, Slot reports %d", seed, step, a, s, s2, got.Slot(a))
			}
		case k < 15:
			op = "WriteWord"
			w := rng.Uint32()
			if ref.WriteWord(a&^3, w) != got.WriteWord(a&^3, w) {
				t.Fatalf("seed %d step %d: WriteWord(%#x) claims differ", seed, step, a)
			}
		default:
			op = "WriteLine"
			base := a &^ (lb - 1)
			var w []uint32
			for off := uint32(0); off < lb; off += 4 {
				if rng.Intn(2) == 0 {
					w = append(w, base+off, rng.Uint32())
				}
			}
			if len(w) == 0 {
				w = []uint32{base, 1}
			}
			s, s2 := ref.WriteLine(w), got.WriteLine(w)
			if s != s2 || s != got.Slot(base) {
				t.Fatalf("seed %d step %d: WriteLine(%#x) returned slots %d and %d, Slot reports %d", seed, step, base, s, s2, got.Slot(base))
			}
		}
		if ref.Stats != got.Stats || refObs != gotObs {
			t.Fatalf("seed %d step %d (%s %#x): stats %+v obs %+v, want %+v obs %+v", seed, step, op, a, got.Stats, gotObs, ref.Stats, refObs)
		}
		if !reflect.DeepEqual(ref.Snapshot(), got.Snapshot()) {
			t.Fatalf("seed %d step %d (%s %#x): snapshots differ", seed, step, op, a)
		}
	}
}

// TestHitMissChangesNothing: a Hit that misses leaves the cache as it
// was, observer included, on an empty set and on a full one.
func TestHitMissChangesNothing(t *testing.T) {
	c := MustNew(Config{SizeBytes: 8 << 10, LineBytes: 16, Ways: 2}, false)
	var obs countObs
	c.Obs = &obs
	span := uint32(c.Config().Sets() * c.Config().LineBytes)
	for _, fill := range [][]uint32{nil, {0x1000, 0x1000 + span}} {
		for _, a := range fill {
			c.Fill(a, nil)
		}
		before, o := c.Snapshot(), obs
		if c.Hit(0x1000 + 2*span) {
			t.Fatal("Hit found an absent line")
		}
		if !reflect.DeepEqual(c.Snapshot(), before) || obs != o {
			t.Fatalf("a missing Hit changed the cache (%d lines filled)", len(fill))
		}
	}
}
