// Package mem models the simulator's main memory: a sparse 32-bit
// physical address space with the burst-bus timing of the paper's Table 1
// (64-bit bus, 10-cycle first access, 2-cycle successive accesses).
package mem

import (
	"encoding/binary"
	"fmt"

	"repro/internal/program"
)

// BusConfig is the main-memory timing model.
type BusConfig struct {
	FirstCycles int // latency of the first 8-byte beat
	NextCycles  int // latency of each successive beat in a burst
	WidthBytes  int // bus width (8 = 64 bits)
}

// DefaultBus matches the paper: 10-cycle latency, 2-cycle rate, 64 bits.
func DefaultBus() BusConfig {
	return BusConfig{FirstCycles: 10, NextCycles: 2, WidthBytes: 8}
}

// BurstCycles returns the cycles to transfer n contiguous bytes.
func (b BusConfig) BurstCycles(n int) int {
	if n <= 0 {
		return 0
	}
	beats := (n + b.WidthBytes - 1) / b.WidthBytes
	return b.FirstCycles + (beats-1)*b.NextCycles
}

const pageShift = 16
const pageSize = 1 << pageShift

// MaxBacked bounds the memory one machine backs, in bytes (64 KB
// pages, each backed on its first store). A program that stores past
// it is runaway: no shipped program backs more than five pages. A
// store that would back one more page fails instead, and Restore
// refuses a snapshot holding more.
const MaxBacked = 32 << 20

// ErrBacked classifies the refusals MaxBacked makes.
var ErrBacked = fmt.Errorf("mem: more than %d MiB backed", MaxBacked>>20)

// Memory is a sparse byte-addressable physical memory.
type Memory struct {
	pages map[uint32][]byte
	bus   BusConfig

	// Direct-mapped page cache: accesses cluster on a handful of pages
	// (stack, handler tables, compressed indices, dictionary), and pages
	// are never removed, so caching resolved lookups is always coherent
	// and skips the map on the hot path. Eight slots, indexed by
	// slotOf, keep the decompressor's interleaved indices/dictionary/
	// stack streams and the program's code, data and stack pages from
	// thrashing a single entry.
	pcache [8]pageSlot

	// Reads counts bus read transactions; BytesRead the bytes moved.
	Reads     uint64
	BytesRead uint64

	// OnBurst, when set, observes every accounted bus burst (bytes
	// moved, cycles charged). Nil costs nothing; internal/telemetry uses
	// it for the burst-length histogram.
	OnBurst func(bytes, cycles int)
}

// New returns an empty memory with the given bus timing.
func New(bus BusConfig) *Memory {
	return &Memory{pages: make(map[uint32][]byte), bus: bus}
}

// Bus returns the bus timing configuration.
func (m *Memory) Bus() BusConfig { return m.bus }

type pageSlot struct {
	idx  uint32
	data []byte
}

// slotOf is the page cache slot of page idx. The fold gives the
// program layout's region pages distinct slots: native code (0x40),
// compressed data (0x1000), .data (0x2000), the stack's top page
// (0x6FFF) and handler RAM (0x7F00) take slots 0, 1, 2, 6 and 7.
func slotOf(idx uint32) uint32 {
	return (idx ^ idx>>3 ^ idx>>12) & 7
}

func (m *Memory) page(addr uint32, create bool) []byte {
	idx := addr >> pageShift
	s := &m.pcache[slotOf(idx)]
	if s.data != nil && s.idx == idx {
		return s.data
	}
	p := m.pages[idx]
	if p == nil && create && len(m.pages) < MaxBacked/pageSize {
		p = make([]byte, pageSize)
		m.pages[idx] = p
	}
	if p != nil {
		s.idx, s.data = idx, p
	}
	return p
}

// Cached returns addr's page from addr on when the page cache holds the
// page, or nil; it changes nothing. It inlines, so a load whose page is
// cached reads it without a call (LoadByte, ReadHalf and ReadWord are
// the loads for every page).
func (m *Memory) Cached(addr uint32) []byte {
	if s := &m.pcache[slotOf(addr>>pageShift)]; s.idx == addr>>pageShift && s.data != nil {
		return s.data[addr&(pageSize-1):]
	}
	return nil
}

// Backed reports whether addr has ever been written (i.e. belongs to a
// loaded segment or touched page). The CPU uses it to distinguish the
// virtual decompressed region (never loaded) from real memory. It
// resolves the page through the page cache, so the read of a backed
// line that usually follows it finds the page there.
func (m *Memory) Backed(addr uint32) bool {
	return m.page(addr, false) != nil
}

// BackedRange reports whether every page of [lo, hi) is backed (an
// empty range is).
func (m *Memory) BackedRange(lo, hi uint32) bool {
	if hi <= lo {
		return true
	}
	for p := lo >> pageShift; p <= (hi-1)>>pageShift; p++ {
		if m.pages[p] == nil {
			return false
		}
	}
	return true
}

// LoadByte returns the byte at addr (zero if unbacked).
func (m *Memory) LoadByte(addr uint32) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&(pageSize-1)]
}

// StoreByte stores one byte. It reports false, storing nothing, when
// addr's page is not backed and backing it would pass MaxBacked; so do
// WriteWord and WriteHalf.
func (m *Memory) StoreByte(addr uint32, v byte) bool {
	p := m.page(addr, true)
	if p == nil {
		return false
	}
	p[addr&(pageSize-1)] = v
	return true
}

// ReadWord returns the little-endian 32-bit word at addr. addr must be
// 4-aligned; unaligned access is a simulator bug, so it panics.
func (m *Memory) ReadWord(addr uint32) uint32 {
	if addr&3 != 0 {
		panic(fmt.Sprintf("mem: unaligned word read at %#x", addr))
	}
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	off := addr & (pageSize - 1)
	return binary.LittleEndian.Uint32(p[off : off+4])
}

// WriteWord stores a little-endian 32-bit word at 4-aligned addr.
func (m *Memory) WriteWord(addr uint32, v uint32) bool {
	if addr&3 != 0 {
		panic(fmt.Sprintf("mem: unaligned word write at %#x", addr))
	}
	p := m.page(addr, true)
	if p == nil {
		return false
	}
	off := addr & (pageSize - 1)
	binary.LittleEndian.PutUint32(p[off:off+4], v)
	return true
}

// ReadHalf returns the little-endian 16-bit halfword at 2-aligned addr.
func (m *Memory) ReadHalf(addr uint32) uint16 {
	if addr&1 != 0 {
		panic(fmt.Sprintf("mem: unaligned half read at %#x", addr))
	}
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	off := addr & (pageSize - 1)
	return binary.LittleEndian.Uint16(p[off : off+2])
}

// WriteHalf stores a 16-bit halfword at 2-aligned addr.
func (m *Memory) WriteHalf(addr uint32, v uint16) bool {
	if addr&1 != 0 {
		panic(fmt.Sprintf("mem: unaligned half write at %#x", addr))
	}
	p := m.page(addr, true)
	if p == nil {
		return false
	}
	off := addr & (pageSize - 1)
	binary.LittleEndian.PutUint16(p[off:off+2], v)
	return true
}

// Burst accounts one bus read transaction of n bytes — traffic counters
// plus the OnBurst hook — and returns the cycles the burst takes. Cache
// controllers that move data themselves (D-cache fills, the hardware
// decompression unit) use it so every burst is observed exactly once.
func (m *Memory) Burst(n int) int {
	cycles := m.bus.BurstCycles(n)
	m.Reads++
	m.BytesRead += uint64(n)
	if m.OnBurst != nil {
		m.OnBurst(n, cycles)
	}
	return cycles
}

// ReadBlock copies len(dst) bytes starting at addr into dst and returns
// the bus cycles the burst takes. It also updates the traffic counters.
// It copies a page at a time; unbacked pages read as zero and the
// address wraps at the top of the 32-bit space, as LoadByte's do.
func (m *Memory) ReadBlock(addr uint32, dst []byte) int {
	for i := 0; i < len(dst); {
		a := addr + uint32(i)
		off := a & (pageSize - 1)
		n := min(len(dst)-i, int(pageSize-off))
		if p := m.page(a, false); p != nil {
			copy(dst[i:i+n], p[off:])
		} else {
			clear(dst[i : i+n])
		}
		i += n
	}
	return m.Burst(len(dst))
}

// LoadSegment copies a program segment into memory. Virtual segments are
// skipped: they exist only inside the I-cache. A segment that would
// back memory past MaxBacked is an ErrBacked error, and is loaded only
// up to the bound.
func (m *Memory) LoadSegment(s *program.Segment) error {
	if s.Virtual {
		return nil
	}
	addr, data := s.Base, s.Data
	for len(data) > 0 {
		p := m.page(addr, true)
		if p == nil {
			return fmt.Errorf("%w: segment %s needs a page at %#x", ErrBacked, s.Name, addr)
		}
		n := copy(p[addr&(pageSize-1):], data)
		addr += uint32(n)
		data = data[n:]
	}
	return nil
}

// LoadImage loads every non-virtual segment of the image.
func (m *Memory) LoadImage(im *program.Image) error {
	for _, s := range im.Segments {
		if err := m.LoadSegment(s); err != nil {
			return err
		}
	}
	return nil
}
