package program

import (
	"encoding/binary"
	"testing"

	"repro/internal/isa"
)

func seg(name string, base uint32, words ...uint32) *Segment {
	data := make([]byte, 4*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint32(data[4*i:], w)
	}
	return &Segment{Name: name, Base: base, Data: data}
}

func TestSegmentWordAccess(t *testing.T) {
	s := seg(SegText, 0x400000, 0x11223344, 0xAABBCCDD)
	if !s.Contains(0x400004) || s.Contains(0x400008) || s.Contains(0x3FFFFF) {
		t.Fatal("Contains wrong")
	}
	if s.Word(0x400004) != 0xAABBCCDD {
		t.Fatal("Word wrong")
	}
	s.SetWord(0x400000, 0xDEADBEEF)
	if s.Word(0x400000) != 0xDEADBEEF {
		t.Fatal("SetWord wrong")
	}
	if s.End() != 0x400008 {
		t.Fatal("End wrong")
	}
}

func TestImageLookups(t *testing.T) {
	im := &Image{
		Entry: 0x400000,
		Segments: []*Segment{
			seg(SegText, 0x400000, 1, 2, 3, 4),
			seg(SegData, DataBase, 9),
		},
		Symbols: map[string]uint32{"main": 0x400000, "f": 0x400008},
		Procs: []Procedure{
			{Name: "main", Addr: 0x400000, Size: 8},
			{Name: "f", Addr: 0x400008, Size: 8},
		},
	}
	if err := im.Validate(); err != nil {
		t.Fatal(err)
	}
	if im.Segment(SegData) == nil || im.Segment(".nope") != nil {
		t.Fatal("Segment lookup wrong")
	}
	if s := im.SegmentAt(DataBase); s == nil || s.Name != SegData {
		t.Fatal("SegmentAt wrong")
	}
	if p := im.ProcAt(0x400009); p == nil || p.Name != "f" {
		t.Fatal("ProcAt wrong")
	}
	if p := im.ProcAt(0x400010); p != nil {
		t.Fatal("ProcAt past end should be nil")
	}
	if p := im.ProcByName("main"); p == nil || p.Addr != 0x400000 {
		t.Fatal("ProcByName wrong")
	}
	if im.CodeSize() != 16 {
		t.Fatalf("CodeSize = %d", im.CodeSize())
	}
	if im.StoredCodeSize() != 16 {
		t.Fatalf("StoredCodeSize = %d", im.StoredCodeSize())
	}
}

func TestStoredCodeSizeCompressed(t *testing.T) {
	im := &Image{
		Entry: CompBase,
		Segments: []*Segment{
			{Name: SegText, Base: CompBase, Data: make([]byte, 64), Virtual: true},
			seg(SegNative, NativeBase, 1, 2),
			{Name: SegDict, Base: CompDataBase, Data: make([]byte, 16)},
			{Name: SegIndices, Base: CompDataBase + 16, Data: make([]byte, 32)},
		},
		Compress: &CompressionInfo{Scheme: SchemeDict, CompStart: CompBase, CompEnd: CompBase + 64},
	}
	if im.CodeSize() != 64+8 {
		t.Fatalf("CodeSize = %d", im.CodeSize())
	}
	if got := im.StoredCodeSize(); got != 16+32+8 {
		t.Fatalf("StoredCodeSize = %d", got)
	}
}

func TestValidateOverlap(t *testing.T) {
	im := &Image{
		Entry: 0x400000,
		Segments: []*Segment{
			seg(SegText, 0x400000, 1, 2),
			seg(SegData, 0x400004, 3),
		},
	}
	if err := im.Validate(); err == nil {
		t.Fatal("expected overlap error")
	}
	im2 := &Image{
		Entry:    0x400000,
		Segments: []*Segment{seg(SegText, 0x400000, 1, 2)},
		Procs: []Procedure{
			{Name: "a", Addr: 0x400000, Size: 8},
			{Name: "b", Addr: 0x400004, Size: 4},
		},
	}
	if err := im2.Validate(); err == nil {
		t.Fatal("expected proc overlap error")
	}
	// A segment running past 2^32 would wrap End() to a low address and
	// hide its overlap with the segment at 0.
	im3 := &Image{
		Entry: 0,
		Segments: []*Segment{
			seg(SegText, 0, 1, 2),
			seg(SegData, 0xFFFFFFFC, 3, 4),
		},
	}
	if err := im3.Validate(); err == nil {
		t.Fatal("expected error for a segment past the 32-bit address space")
	}
	im3.Segments[1] = seg(SegData, 0xFFFFFFFC, 3)
	if err := im3.Validate(); err != nil {
		t.Fatalf("a segment ending exactly at 2^32 is valid: %v", err)
	}
}

// TestSegmentEndingAt4GiB: a segment whose last word is the top of the
// address space holds its words, so an entry there validates.
func TestSegmentEndingAt4GiB(t *testing.T) {
	im := &Image{
		Entry:    0xFFFFFFF8,
		Segments: []*Segment{seg(SegText, 0xFFFFFFF8, 1, 2)},
	}
	if err := im.Validate(); err != nil {
		t.Fatalf("a text segment ending exactly at 2^32 is valid: %v", err)
	}
	for _, a := range []uint32{0xFFFFFFF8, 0xFFFFFFFC} {
		if s := im.SegmentAt(a); s != im.Segments[0] {
			t.Errorf("SegmentAt(%#x) = %v, want the text segment", a, s)
		}
	}
	for _, a := range []uint32{0, 0xFFFFFFF4} {
		if s := im.SegmentAt(a); s != nil {
			t.Errorf("SegmentAt(%#x) = %s, want none", a, s.Name)
		}
	}
}

func TestApplyRelocs(t *testing.T) {
	im := &Image{
		Entry: 0x400000,
		Segments: []*Segment{
			seg(SegText, 0x400000,
				isa.EncodeJ(isa.OpJAL, 0),                       // jal f
				isa.EncodeI(isa.OpLUI, 0, isa.RegT0, 0),         // lui t0, hi(var)
				isa.EncodeI(isa.OpORI, isa.RegT0, isa.RegT0, 0), // ori t0, lo(var)
			),
			seg(SegData, DataBase, 0),
		},
		Symbols: map[string]uint32{"f": 0x400008, "var": DataBase + 0x1234},
		Relocs: []Reloc{
			{Kind: RelJ26, Seg: SegText, Off: 0, Sym: "f"},
			{Kind: RelHi16, Seg: SegText, Off: 4, Sym: "var"},
			{Kind: RelLo16, Seg: SegText, Off: 8, Sym: "var"},
			{Kind: RelWord32, Seg: SegData, Off: 0, Sym: "f", Add: 4},
		},
	}
	if err := ApplyRelocs(im); err != nil {
		t.Fatal(err)
	}
	text := im.Segment(SegText)
	if got := isa.JumpTarget(0x400000, text.Word(0x400000)); got != 0x400008 {
		t.Fatalf("J26 = %#x", got)
	}
	hi := isa.Imm(text.Word(0x400004))
	lo := isa.Imm(text.Word(0x400008))
	if hi<<16|lo != DataBase+0x1234 {
		t.Fatalf("hi/lo = %#x/%#x", hi, lo)
	}
	if got := im.Segment(SegData).Word(DataBase); got != 0x40000C {
		t.Fatalf("WORD32 = %#x", got)
	}
}

func TestApplyRelocsErrors(t *testing.T) {
	base := &Image{
		Segments: []*Segment{seg(SegText, 0x400000, 0)},
		Symbols:  map[string]uint32{},
	}
	base.Relocs = []Reloc{{Kind: RelJ26, Seg: SegText, Off: 0, Sym: "missing"}}
	if err := ApplyRelocs(base); err == nil {
		t.Fatal("expected undefined symbol error")
	}
	base.Symbols["missing"] = 0x400000
	base.Relocs[0].Off = 100
	if err := ApplyRelocs(base); err == nil {
		t.Fatal("expected out-of-range site error")
	}
	base.Relocs[0].Off = 0
	base.Relocs[0].Seg = ".nope"
	if err := ApplyRelocs(base); err == nil {
		t.Fatal("expected missing segment error")
	}
}
