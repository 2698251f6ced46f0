package cpu

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
)

// withHandlerAt is im with its handler moved to base and padded with
// nops to 64 bytes, so that a base of 2^32-64 puts handler RAM in the
// last page, ending exactly at 2^32 (its End() wraps to 0). The copy
// handler branches only relative to the pc, so it runs anywhere.
func withHandlerAt(t *testing.T, im *program.Image, base uint32) *program.Image {
	t.Helper()
	out := *im
	out.Segments = nil
	for _, s := range im.Segments {
		if s.Name == program.SegDecompressor {
			if len(s.Data) > 64 {
				t.Fatalf("copy handler is %d bytes, want at most 64", len(s.Data))
			}
			data := make([]byte, 64)
			copy(data, s.Data)
			s = &program.Segment{Name: s.Name, Base: base, Data: data}
		}
		out.Segments = append(out.Segments, s)
	}
	return &out
}

// TestHandlerRAMInLastPage: handler RAM that ends exactly at 2^32 is
// handler RAM. It is predecoded, its fetches bypass the I-cache, a
// store into it patches its records and no I-cache line overlapping it
// becomes a fetch window. A run with it there charges exactly what the
// same run charges with handler RAM ending at 2^31, an address with the
// same low 31 bits, so the predictor indexes alike.
func TestHandlerRAMInLastPage(t *testing.T) {
	const top, mid = 0xFFFFFFC0, 0x7FFFFFC0
	im := buildCopyCompressed(t, excProgram, true)
	want, wantCode := runImage(t, withHandlerAt(t, im, mid))
	got, gotCode := runImage(t, withHandlerAt(t, im, top))
	if gotCode != wantCode || got.Stats != want.Stats {
		t.Fatalf("handler RAM in the last page: exit %d, stats %+v\nwant exit %d, stats %+v", gotCode, got.Stats, wantCode, want.Stats)
	}
	if got.IC.Stats != want.IC.Stats || got.DC.Stats != want.DC.Stats {
		t.Fatalf("cache stats differ: I %+v D %+v, want I %+v D %+v", got.IC.Stats, got.DC.Stats, want.IC.Stats, want.DC.Stats)
	}
	if got.Stats.HandlerInstrs == 0 {
		t.Fatal("the handler never ran")
	}

	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Load(withHandlerAt(t, im, top)); err != nil {
		t.Fatal(err)
	}
	if len(c.hdec) != 16 {
		t.Fatalf("predecoded %d handler records, want 16", len(c.hdec))
	}
	for _, a := range []uint32{top, 0xFFFFFFFC} {
		if !c.inHandlerRAM(a) {
			t.Errorf("inHandlerRAM(%#x) = false", a)
		}
	}
	for _, a := range []uint32{0, top - 4, program.CompBase} {
		if c.inHandlerRAM(a) {
			t.Errorf("inHandlerRAM(%#x) = true", a)
		}
	}
	line := uint32(c.Cfg.ICache.LineBytes)
	if c.lineWindow(top) || c.lineWindow(0xFFFFFFFC) {
		t.Error("an I-cache line inside handler RAM may be a fetch window")
	}
	if !c.lineWindow(top-line) || !c.lineWindow(0) {
		t.Error("an I-cache line outside handler RAM may not be a fetch window")
	}
	// The store patches the record of the last word of the address space.
	const last = 0xFFFFFFFC
	w := isa.EncodeI(isa.OpORI, 0, 2, 10) // ori $v0, $zero, 10
	c.Mem.WriteWord(last, w)
	c.noteHandlerStore(last)
	if got, want := c.hdec[len(c.hdec)-1], decodeInstr(last, w); got != want {
		t.Fatalf("store at %#x left record %+v, want %+v", last, got, want)
	}
}

// TestHandlerLenRestored: a restored machine reads handler RAM's
// extent as Load set it, an end of 0 included, and Capture writes it
// back unchanged.
func TestHandlerLenRestored(t *testing.T) {
	for _, tc := range []struct{ base, end, n uint32 }{
		{0, 0, 0},
		{program.HandlerBase, program.HandlerBase + 0x100, 0x100},
		{0xFFFFFFC0, 0, 0x40},
		{0x1000, 0x800, 0}, // reversed: none
	} {
		if n := handlerLen(tc.base, tc.end); n != tc.n {
			t.Errorf("handlerLen(%#x, %#x) = %#x, want %#x", tc.base, tc.end, n, tc.n)
		}
	}
	im := buildCopyCompressed(t, excProgram, true)
	c, _ := runImage(t, withHandlerAt(t, im, 0xFFFFFFC0))
	st := c.CaptureState()
	if st.HandlerPC != 0xFFFFFFC0 || st.HandlerEnd != 0 {
		t.Fatalf("captured handler extent [%#x, %#x), want [0xffffffc0, 0)", st.HandlerPC, st.HandlerEnd)
	}
	c.RestoreState(st)
	if c.handlerLen != 0x40 || len(c.hdec) != 16 {
		t.Fatalf("restored handler RAM is %#x bytes with %d records, want 0x40 and 16", c.handlerLen, len(c.hdec))
	}
}
