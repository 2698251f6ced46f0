package mem

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/program"
)

func TestBurstCycles(t *testing.T) {
	bus := DefaultBus()
	cases := []struct{ n, want int }{
		{0, 0}, {1, 10}, {8, 10}, {9, 12}, {16, 12}, {32, 16}, {64, 24},
	}
	for _, c := range cases {
		if got := bus.BurstCycles(c.n); got != c.want {
			t.Errorf("BurstCycles(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := New(DefaultBus())
	m.WriteWord(0x1000, 0xDEADBEEF)
	if m.ReadWord(0x1000) != 0xDEADBEEF {
		t.Fatal("word round trip")
	}
	if m.LoadByte(0x1000) != 0xEF || m.LoadByte(0x1003) != 0xDE {
		t.Fatal("little endian layout")
	}
	m.WriteHalf(0x2000, 0xBEAD)
	if m.ReadHalf(0x2000) != 0xBEAD {
		t.Fatal("half round trip")
	}
	if m.ReadWord(0x99999000) != 0 {
		t.Fatal("unbacked reads zero")
	}
	if m.Backed(0x99999000) {
		t.Fatal("unbacked page reported backed")
	}
	if !m.Backed(0x1000) {
		t.Fatal("backed page not reported")
	}
}

func TestUnalignedPanics(t *testing.T) {
	m := New(DefaultBus())
	for _, f := range []func(){
		func() { m.ReadWord(0x1001) },
		func() { m.WriteWord(0x1002, 0) },
		func() { m.ReadHalf(0x1001) },
		func() { m.WriteHalf(0x1003, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on unaligned access")
				}
			}()
			f()
		}()
	}
}

func TestReadBlock(t *testing.T) {
	m := New(DefaultBus())
	for i := uint32(0); i < 32; i++ {
		m.StoreByte(0x3000+i, byte(i))
	}
	dst := make([]byte, 32)
	cycles := m.ReadBlock(0x3000, dst)
	if cycles != 16 {
		t.Fatalf("cycles = %d, want 16", cycles)
	}
	for i := range dst {
		if dst[i] != byte(i) {
			t.Fatalf("dst[%d] = %d", i, dst[i])
		}
	}
	if m.Reads != 1 || m.BytesRead != 32 {
		t.Fatalf("traffic counters %d/%d", m.Reads, m.BytesRead)
	}
}

func TestCrossPageAccess(t *testing.T) {
	m := New(DefaultBus())
	base := uint32(pageSize - 2)
	m.StoreByte(base, 0xAA)
	m.StoreByte(base+1, 0xBB)
	m.StoreByte(base+2, 0xCC) // next page
	dst := make([]byte, 3)
	m.ReadBlock(base, dst)
	if dst[0] != 0xAA || dst[1] != 0xBB || dst[2] != 0xCC {
		t.Fatalf("cross-page read %x", dst)
	}
}

func TestLoadImageSkipsVirtual(t *testing.T) {
	im := &program.Image{Segments: []*program.Segment{
		{Name: program.SegText, Base: program.CompBase, Data: []byte{1, 2, 3, 4}, Virtual: true},
		{Name: program.SegData, Base: program.DataBase, Data: []byte{5, 6, 7, 8}},
	}}
	m := New(DefaultBus())
	m.LoadImage(im)
	if m.Backed(program.CompBase) {
		t.Fatal("virtual segment must not be loaded")
	}
	if m.LoadByte(program.DataBase+3) != 8 {
		t.Fatal("data segment not loaded")
	}
}

func TestQuickWordRoundTrip(t *testing.T) {
	m := New(DefaultBus())
	f := func(addr, v uint32) bool {
		addr &^= 3
		m.WriteWord(addr, v)
		return m.ReadWord(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestReadBlockMatchesBytewise holds the page-copying ReadBlock to a
// byte-by-byte LoadByte reference: across a 64 KiB page boundary, over
// an unbacked page, and at the top of the 32-bit space, where the
// address wraps to page 0. The traffic counters and the OnBurst hook
// see one burst of the block's length either way.
func TestReadBlockMatchesBytewise(t *testing.T) {
	m := New(DefaultBus())
	fill := func(base uint32, n int) {
		for i := 0; i < n; i++ {
			m.StoreByte(base+uint32(i), byte(base>>8)^byte(i*7+1))
		}
	}
	fill(0x20000-100, 200)  // pages 1 and 2, across their boundary
	fill(0x50000, 64)       // page 5, preceded by unbacked page 4
	fill(0xFFFFFFFF-63, 64) // the last page
	fill(0, 64)             // page 0, where the top wraps to
	cases := []struct {
		name string
		addr uint32
		n    int
	}{
		{"within a page", 0x20000 - 90, 32},
		{"across a page boundary", 0x20000 - 16, 32},
		{"ending exactly at a boundary", 0x20000 - 32, 32},
		{"unbacked page", 0x40010, 32},
		{"unbacked into backed", 0x50000 - 16, 32},
		{"wrap at the top", 0xFFFFFFF0, 32},
		{"longer than a page", 0x20000 - 100, pageSize + 300},
		{"empty", 0x1234, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := make([]byte, tc.n)
			for i := range want {
				want[i] = m.LoadByte(tc.addr + uint32(i))
			}
			var bursts, burstBytes, burstCycles int
			m.OnBurst = func(b, c int) { bursts, burstBytes, burstCycles = bursts+1, b, c }
			reads, bytesRead := m.Reads, m.BytesRead
			got := make([]byte, tc.n)
			for i := range got {
				got[i] = 0xEE // ReadBlock must overwrite, zeros included
			}
			cycles := m.ReadBlock(tc.addr, got)
			if string(got) != string(want) {
				t.Fatalf("ReadBlock(%#x, %d) differs from the bytewise reference", tc.addr, tc.n)
			}
			if cycles != m.Bus().BurstCycles(tc.n) {
				t.Errorf("cycles = %d, want %d", cycles, m.Bus().BurstCycles(tc.n))
			}
			if m.Reads != reads+1 || m.BytesRead != bytesRead+uint64(tc.n) {
				t.Errorf("counters moved by %d reads / %d bytes, want 1 / %d",
					m.Reads-reads, m.BytesRead-bytesRead, tc.n)
			}
			if bursts != 1 || burstBytes != tc.n || burstCycles != cycles {
				t.Errorf("OnBurst saw %d bursts (%d bytes, %d cycles), want 1 (%d, %d)",
					bursts, burstBytes, burstCycles, tc.n, cycles)
			}
		})
	}
	if m.Backed(0x40000) {
		t.Fatal("ReadBlock backed an unbacked page")
	}
}

// TestBackedBound: stores back pages up to MaxBacked and no further; a
// refused store changes nothing, stores into backed pages still land,
// and Restore and LoadSegment refuse what would pass the bound.
func TestBackedBound(t *testing.T) {
	m := New(DefaultBus())
	const pages = MaxBacked / pageSize
	for i := uint32(0); i < pages; i++ {
		if !m.WriteWord(i<<pageShift, i) {
			t.Fatalf("store into page %d of %d refused", i, pages)
		}
	}
	next := uint32(pages) << pageShift
	if m.WriteWord(next, 1) || m.WriteHalf(next, 1) || m.StoreByte(next, 1) {
		t.Fatal("a store backed a page past MaxBacked")
	}
	if m.Backed(next) || len(m.pages) != pages {
		t.Fatalf("refused stores backed memory: %d pages", len(m.pages))
	}
	if !m.StoreByte(3, 7) || m.LoadByte(3) != 7 {
		t.Fatal("a store into a backed page failed at the bound")
	}
	if err := m.LoadSegment(&program.Segment{Name: ".data", Base: next, Data: []byte{1}}); !errors.Is(err, ErrBacked) {
		t.Fatalf("LoadSegment past the bound: %v", err)
	}
	st := State{Pages: make([]PageState, pages+1)}
	for i := range st.Pages {
		st.Pages[i].Index = uint32(i)
	}
	r := New(DefaultBus())
	if err := r.Restore(st); !errors.Is(err, ErrBacked) {
		t.Fatalf("Restore of %d pages: %v", len(st.Pages), err)
	}
	if len(r.pages) != 0 {
		t.Fatal("refused Restore backed memory")
	}
}

// regionPages are the pages of the program layout's regions: native
// code, compressed data, .data, the stack's top and handler RAM.
var regionPages = []uint32{
	program.NativeBase >> pageShift,
	program.CompDataBase >> pageShift,
	program.DataBase >> pageShift,
	(program.StackTop - 4) >> pageShift,
	program.HandlerBase >> pageShift,
}

// TestRegionPagesTakeDistinctSlots: the regions' pages each keep a page
// cache slot of their own, so a native refill does not evict the data
// page, and once touched all five stay cached.
func TestRegionPagesTakeDistinctSlots(t *testing.T) {
	seen := map[uint32]uint32{}
	for _, p := range regionPages {
		s := slotOf(p)
		if q, ok := seen[s]; ok {
			t.Errorf("pages %#x and %#x share page cache slot %d", q, p, s)
		}
		seen[s] = p
	}
	m := New(DefaultBus())
	for _, p := range regionPages {
		m.WriteWord(p<<pageShift, p)
	}
	for _, p := range regionPages {
		if b := m.Cached(p << pageShift); len(b) != pageSize || &b[0] != &m.pages[p][0] {
			t.Errorf("page %#x is not cached after all five were touched", p)
		}
	}
}

// TestPageCacheRandomTrace: over the region pages and pages that share
// their slots, a random trace of Cached, LoadByte, ReadWord, StoreByte,
// WriteWord and stores through Cached's slice (as the CPU's inline
// store makes them) agrees with the backing map and a shadow of every
// byte stored; Cached returns the backing page itself or nil.
func TestPageCacheRandomTrace(t *testing.T) {
	pages := append([]uint32{}, regionPages...)
	for _, p := range regionPages {
		pages = append(pages, p^8, p^0x1000, p+1) // colliding or not, backed on first store
	}
	rng := rand.New(rand.NewSource(1))
	m := New(DefaultBus())
	shadow := map[uint32]byte{}
	for i := 0; i < 200_000; i++ {
		p := pages[rng.Intn(len(pages))]
		a := p<<pageShift | uint32(rng.Intn(64))<<2 | uint32(rng.Intn(4))
		w := a &^ 3
		switch rng.Intn(6) {
		case 0:
			b := m.Cached(a)
			if b == nil {
				break
			}
			if pg := m.pages[p]; pg == nil || &b[0] != &pg[a&(pageSize-1)] {
				t.Fatalf("step %d: Cached(%#x) is not the backing page", i, a)
			}
		case 1:
			if got := m.LoadByte(a); got != shadow[a] {
				t.Fatalf("step %d: LoadByte(%#x) = %#x, want %#x", i, a, got, shadow[a])
			}
		case 2:
			want := uint32(shadow[w]) | uint32(shadow[w+1])<<8 | uint32(shadow[w+2])<<16 | uint32(shadow[w+3])<<24
			if got := m.ReadWord(w); got != want {
				t.Fatalf("step %d: ReadWord(%#x) = %#x, want %#x", i, w, got, want)
			}
		case 3:
			v := byte(rng.Intn(256))
			m.StoreByte(a, v)
			shadow[a] = v
		case 4:
			v := rng.Uint32()
			m.WriteWord(w, v)
			for k := uint32(0); k < 4; k++ {
				shadow[w+k] = byte(v >> (8 * k))
			}
		case 5:
			v := byte(rng.Intn(256))
			if b := m.Cached(a); b != nil {
				b[0] = v
			} else {
				m.StoreByte(a, v)
			}
			shadow[a] = v
		}
	}
	for a, v := range shadow {
		if got := m.pages[a>>pageShift][a&(pageSize-1)]; got != v {
			t.Fatalf("backing byte at %#x = %#x, want %#x", a, got, v)
		}
	}
}
