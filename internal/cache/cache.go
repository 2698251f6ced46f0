// Package cache implements the set-associative, LRU caches of the
// simulated memory hierarchy, including the explicit line-write operation
// (swic) that lets the software decompressor fill instruction-cache lines.
package cache

import (
	"encoding/binary"
	"fmt"
)

// Config sizes a cache. The paper's baseline I-cache is 16KB/32B/2-way and
// the D-cache 8KB/16B/2-way, both LRU.
type Config struct {
	SizeBytes int
	LineBytes int
	Ways      int
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.SizeBytes / (c.LineBytes * c.Ways) }

// Validate checks the configuration for power-of-two geometry.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	pow2 := func(n int) bool { return n&(n-1) == 0 }
	if !pow2(c.SizeBytes) || !pow2(c.LineBytes) || !pow2(c.Ways) {
		return fmt.Errorf("cache: geometry must be powers of two: %+v", c)
	}
	if c.SizeBytes < c.LineBytes*c.Ways {
		return fmt.Errorf("cache: size %d too small for %d ways of %dB lines",
			c.SizeBytes, c.Ways, c.LineBytes)
	}
	return nil
}

type line struct {
	valid bool
	// derived marks state a client has computed from the line (the
	// CPU's predecoded records). The cache clears it whenever the
	// line's identity or contents change, so a set bit means the
	// client's copy is still current.
	derived bool
	// stored marks a line with contents in the cache's store: every
	// line a data-storing cache has allocated, or restored with data.
	stored bool
	tag    uint32
	lru    uint64
}

// Stats counts cache events.
type Stats struct {
	Accesses  uint64
	Misses    uint64
	Evictions uint64
	LineFills uint64 // hardware fills
	SwicLines uint64 // lines claimed by explicit writes
}

// MissRatio returns Misses/Accesses (0 when idle).
func (s Stats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Observer receives per-set cache events. Every call site is
// nil-checked, so an unobserved cache pays one pointer compare per
// event; internal/telemetry's set counters (the cache heatmap)
// implement it.
type Observer interface {
	// CacheMiss reports a lookup miss in set. conflict is true when
	// every way of the set already held a valid line — the miss will
	// evict, distinguishing conflict/capacity misses from cold ones.
	CacheMiss(set int, conflict bool)
	// CacheEvict reports a valid line being replaced in set (by a fill
	// or a swic line claim).
	CacheEvict(set int)
}

// Cache is one level of the hierarchy.
//
// Lines live in one set-major slice, so each has a dense slot number,
// set*Ways + way, that stays fixed for the cache's lifetime. Clients
// that keep per-line state index it by slot (Lookup, Slot) and ask
// Derived whether the line has changed since they computed it.
type Cache struct {
	cfg   Config
	lines []line
	// store holds the lines' contents, LineBytes per slot in slot
	// order, apart from lines so that a set's tags and LRU stamps share
	// a host cache line. A cache that stores no data has none unless
	// Restore gives a line data.
	store      []byte
	clock      uint64
	storesData bool
	lineShift  uint
	setShift   uint
	setMask    uint32

	// MRU hint: the slot of the last Lookup hit, keyed by its
	// addr>>lineShift (which identifies set and tag uniquely).
	// Consecutive accesses to one line — the common fetch pattern —
	// skip the associative lookup; side effects (access count, LRU
	// clock) are identical. Any operation that moves or invalidates
	// lines clears the hint (mruSlot < 0).
	mruIdx  uint32
	mruSlot int

	Stats Stats
	// Obs, when set, observes per-set miss/conflict/eviction events.
	Obs Observer
}

// New builds a cache. storesData selects whether line contents are kept;
// the I-cache stores data so that fetches return the words the
// decompressor wrote with swic, while the D-cache only tracks presence.
func New(cfg Config, storesData bool) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{cfg: cfg, storesData: storesData, mruSlot: -1}
	c.lines = make([]line, cfg.Sets()*cfg.Ways)
	if storesData {
		c.store = make([]byte, len(c.lines)*cfg.LineBytes)
	}
	for s := cfg.LineBytes; s > 1; s >>= 1 {
		c.lineShift++
	}
	c.setShift = uint(log2(uint32(cfg.Sets())))
	c.setMask = uint32(cfg.Sets() - 1)
	return c, nil
}

// MustNew is New for configurations known to be valid.
func MustNew(cfg Config, storesData bool) *Cache {
	c, err := New(cfg, storesData)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// LineBase returns the address of the first byte of addr's line.
func (c *Cache) LineBase(addr uint32) uint32 {
	return addr &^ uint32(c.cfg.LineBytes-1)
}

func (c *Cache) index(addr uint32) (set uint32, tag uint32) {
	l := addr >> c.lineShift
	return l & c.setMask, l >> c.setShift
}

func log2(n uint32) int {
	k := 0
	for n > 1 {
		n >>= 1
		k++
	}
	return k
}

// find returns the slot holding addr's line, or -1.
func (c *Cache) find(addr uint32) int {
	set, tag := c.index(addr)
	base := int(set) * c.cfg.Ways
	ways := c.lines[base : base+c.cfg.Ways]
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			return base + i
		}
	}
	return -1
}

// Access looks addr up, counting the access and updating LRU on a hit.
// It reports whether the line is present.
func (c *Cache) Access(addr uint32) bool { return c.Lookup(addr) >= 0 }

// Lookup is Access returning the slot of the hit line, or -1 on a miss.
func (c *Cache) Lookup(addr uint32) int {
	c.Stats.Accesses++
	idx := addr >> c.lineShift
	if c.mruSlot >= 0 && idx == c.mruIdx {
		c.clock++
		c.lines[c.mruSlot].lru = c.clock
		return c.mruSlot
	}
	if s := c.find(addr); s >= 0 {
		c.clock++
		c.lines[s].lru = c.clock
		c.mruIdx, c.mruSlot = idx, s
		return s
	}
	c.Stats.Misses++
	if c.Obs != nil {
		set, _ := c.index(addr)
		c.Obs.CacheMiss(int(set), c.setFull(set))
	}
	return -1
}

// Hit is Access for the common case: when addr's line is present it
// counts the access and updates LRU as Access does and reports true;
// when the line is absent it changes nothing and reports false, and the
// caller goes on to Access, which counts the miss. It probes the set
// itself, without find or the MRU hint (which it leaves as it was, a
// hint that still names a resident line), so that it inlines into the
// interpreter's load cases.
func (c *Cache) Hit(addr uint32) bool {
	idx := addr >> c.lineShift
	tag, s := idx>>c.setShift, int(idx&c.setMask)*c.cfg.Ways
	for e := s + c.cfg.Ways; s < e; s++ {
		if ln := &c.lines[s]; ln.valid && ln.tag == tag {
			c.Stats.Accesses++
			c.clock++
			ln.lru = c.clock
			return true
		}
	}
	return false
}

// Hits counts n accesses the caller knows hit slot, leaving what n
// Accesses to its line would: the access count and the LRU clock move
// on by n, and the line's LRU stamp is the clock. The caller must have
// established that slot still holds the line (Derived tracks that)
// and that no other operation on the cache came between the n
// accesses.
func (c *Cache) Hits(slot int, n uint64) {
	c.Stats.Accesses += n
	c.clock += n
	c.lines[slot].lru = c.clock
}

// Slot returns the slot holding addr's line, or -1, without touching
// statistics or LRU state.
func (c *Cache) Slot(addr uint32) int { return c.find(addr) }

// SlotData returns slot's line contents without copying, or nil when
// the line stores none. The slice is the cache's own storage: it
// changes with the line.
func (c *Cache) SlotData(slot int) []byte {
	if !c.lines[slot].stored {
		return nil
	}
	return c.data(slot)
}

// data is slot's part of the store.
func (c *Cache) data(slot int) []byte {
	n := c.cfg.LineBytes
	return c.store[slot*n : (slot+1)*n : (slot+1)*n]
}

// Derived reports whether slot's derived bit is still set: nothing has
// changed the line's identity or contents since SetDerived.
func (c *Cache) Derived(slot int) bool { return c.lines[slot].derived }

// SetDerived records that the client has computed state from slot's
// current line.
func (c *Cache) SetDerived(slot int) { c.lines[slot].derived = true }

// setFull reports whether every way of set holds a valid line.
func (c *Cache) setFull(set uint32) bool {
	base := int(set) * c.cfg.Ways
	for _, ln := range c.lines[base : base+c.cfg.Ways] {
		if !ln.valid {
			return false
		}
	}
	return true
}

// Probe reports presence without touching statistics or LRU state.
func (c *Cache) Probe(addr uint32) bool {
	if c.mruSlot >= 0 && addr>>c.lineShift == c.mruIdx {
		return true
	}
	return c.find(addr) >= 0
}

func (c *Cache) victim(set uint32) int {
	base := int(set) * c.cfg.Ways
	v := base
	for i := base + 1; i < base+c.cfg.Ways; i++ {
		if !c.lines[i].valid {
			return i
		}
		if c.lines[i].lru < c.lines[v].lru {
			v = i
		}
	}
	if c.lines[v].valid {
		c.Stats.Evictions++
		if c.Obs != nil {
			c.Obs.CacheEvict(int(set))
		}
	}
	return v
}

// allocate claims a slot for addr's line and returns it. The line's
// data keeps its old bytes: Fill overwrites all of them, and claim
// zeroes them.
func (c *Cache) allocate(addr uint32) int {
	c.mruSlot = -1
	set, tag := c.index(addr)
	// Re-use the existing line if present so a set never holds two ways
	// with the same tag.
	s := c.find(addr)
	if s < 0 {
		s = c.victim(set)
	}
	ln := &c.lines[s]
	ln.valid = true
	ln.derived = false
	ln.tag = tag
	c.clock++
	ln.lru = c.clock
	ln.stored = ln.stored || c.storesData
	return s
}

// claim allocates addr's line for an explicit write (swic), zeroed, and
// counts the claim.
func (c *Cache) claim(addr uint32) int {
	s := c.allocate(addr)
	if c.storesData {
		clear(c.data(s))
	}
	c.Stats.SwicLines++
	return s
}

// Fill installs the line containing addr with the given data (the
// hardware-refill path) and returns its slot. data must be one full
// line, or nil for a cache that does not store data.
func (c *Cache) Fill(addr uint32, data []byte) int {
	if c.storesData && len(data) != c.cfg.LineBytes {
		panic(fmt.Sprintf("cache: fill of %d bytes into %dB line", len(data), c.cfg.LineBytes))
	}
	s := c.allocate(addr)
	c.Stats.LineFills++
	if c.storesData {
		copy(c.data(s), data)
	}
	return s
}

// WriteWord implements swic: store word w at addr inside the I-cache,
// claiming (allocating) the line on its first write. Returns true when
// the write claimed a new line.
func (c *Cache) WriteWord(addr uint32, w uint32) bool {
	if addr&3 != 0 {
		panic(fmt.Sprintf("cache: unaligned swic at %#x", addr))
	}
	s := c.find(addr)
	claimed := s < 0
	if claimed {
		s = c.claim(addr)
	} else {
		ln := &c.lines[s]
		ln.derived = false
		c.clock++
		ln.lru = c.clock
	}
	if c.storesData {
		off := addr & uint32(c.cfg.LineBytes-1)
		binary.LittleEndian.PutUint32(c.data(s)[off:off+4], w)
	}
	return claimed
}

// WriteLine is WriteWord for each (address, word) pair of w in order,
// every address word-aligned and in one line, with one tag search for
// the line. It leaves what those calls would: the line claimed by the
// first if absent, the LRU clock moved on by one per word and the
// line's stamp the clock. It returns the line's slot.
func (c *Cache) WriteLine(w []uint32) int {
	s := c.find(w[0])
	n := uint64(len(w) / 2)
	if s < 0 {
		s = c.claim(w[0])
		n--
	}
	ln := &c.lines[s]
	ln.derived = false
	c.clock += n
	ln.lru = c.clock
	if c.storesData {
		data, mask := c.data(s), uint32(c.cfg.LineBytes-1)
		for i := 0; i < len(w); i += 2 {
			off := w[i] & mask
			binary.LittleEndian.PutUint32(data[off:off+4], w[i+1])
		}
	}
	return s
}

// ReadWord returns the cached word at addr. ok is false when the line is
// absent (or the cache does not store data).
func (c *Cache) ReadWord(addr uint32) (w uint32, ok bool) {
	s := c.find(addr)
	if s < 0 || !c.lines[s].stored {
		return 0, false
	}
	off := addr & uint32(c.cfg.LineBytes-1)
	return binary.LittleEndian.Uint32(c.data(s)[off : off+4]), true
}
