package program_test

import (
	"bytes"
	"compress/gzip"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/asm"
	_ "repro/internal/codec/all" // register every shipped codec
	"repro/internal/core"
	"repro/internal/program"
	"repro/internal/synth"
)

// FuzzImageLoad feeds arbitrary bytes to the image loader, Decode
// (which LoadFile runs on the file's bytes). Decode must either reject
// them with an error or accept an image whose encoding loads again and
// re-encodes byte-equal. It must never panic. A file in
// the retired gzip+JSON format must get ErrLegacyImage. The seed corpus
// holds the package tests' sample image and a compressed random synth
// program, a truncation of each, sort.s with a procedure table that
// wraps past 2^32 (wrappedSort), and a legacy gzip file.
func FuzzImageLoad(f *testing.F) {
	native, err := synth.GenerateRandom(synth.DefaultRandSpec(3)).Build()
	if err != nil {
		f.Fatal(err)
	}
	res, err := core.Compress(native, core.Options{Scheme: program.SchemeCodePack, ShadowRF: true})
	if err != nil {
		f.Fatal(err)
	}
	for _, im := range []*program.Image{program.SampleImage(), res.Image} {
		data, err := program.Encode(im)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	wrapped, err := program.Encode(wrappedSort(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wrapped)
	topOverlap, err := program.Encode(topOverlapImage())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(topOverlap)
	var legacy bytes.Buffer
	zw := gzip.NewWriter(&legacy)
	zw.Write([]byte(`{"format":"clr32-image","version":1,"image":{"Entry":4194304}}`))
	zw.Close()
	f.Add(legacy.Bytes())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		im, err := program.Decode(data)
		if err != nil {
			if bytes.HasPrefix(data, []byte{0x1f, 0x8b}) && !errors.Is(err, program.ErrLegacyImage) {
				t.Fatalf("gzip input not classified as legacy: %v", err)
			}
			return
		}
		enc, err := program.Encode(im)
		if err != nil {
			t.Fatalf("accepted image does not encode: %v", err)
		}
		again, err := program.Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded image does not load: %v", err)
		}
		enc2, err := program.Encode(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatal("image re-encodes differently after a round trip")
		}
	})
}

// wrappedSort is testdata/sort.s with main's Size set to -Addr+8, so
// that Addr+Size wraps past 2^32 to 8: added in 32 bits, the table
// would claim main covers [Addr, 8), an empty range.
func wrappedSort(tb testing.TB) *program.Image {
	tb.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "sort.s"))
	if err != nil {
		tb.Fatal(err)
	}
	im, err := asm.Assemble(string(src))
	if err != nil {
		tb.Fatal(err)
	}
	main := im.ProcByName("main")
	if main == nil {
		tb.Fatal("sort.s has no main")
	}
	main.Size = -main.Addr + 8
	return im
}

// topOverlapImage has a .text page ending exactly at 2^32 and a .data
// segment inside it: End() of the lower segment wraps to 0, so compared
// in 32 bits the two would not overlap.
func topOverlapImage() *program.Image {
	return &program.Image{
		Entry: 0xFFFFF000,
		Segments: []*program.Segment{
			{Name: program.SegText, Base: 0xFFFFF000, Data: make([]byte, 0x1000)},
			{Name: program.SegData, Base: 0xFFFFF800, Data: make([]byte, 0x100)},
		},
	}
}

// TestValidateOverlapAtTop: segments that overlap below 2^32 are
// refused when the lower one ends exactly at 2^32, by Validate and so
// by Decode; the upper one alone is valid.
func TestValidateOverlapAtTop(t *testing.T) {
	im := topOverlapImage()
	if err := im.Validate(); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("Validate accepted .data inside a .text ending at 2^32: %v", err)
	}
	data, err := program.Encode(im)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := program.Decode(data); err == nil {
		t.Fatal("Decode accepted the overlapping segments")
	}
	im.Segments = im.Segments[:1]
	if err := im.Validate(); err != nil {
		t.Fatalf("a .text page ending at 2^32 is valid: %v", err)
	}
}

// TestValidateRefusesWrappedProcedure: a procedure running past the
// 32-bit address space is refused by Validate and so by Decode, whichever
// place it holds in the table.
func TestValidateRefusesWrappedProcedure(t *testing.T) {
	im := wrappedSort(t)
	if err := im.Validate(); err == nil || !strings.Contains(err.Error(), "past the 32-bit address space") {
		t.Fatalf("Validate accepted main with Size %#x at %#x: %v", im.ProcByName("main").Size, im.ProcByName("main").Addr, err)
	}
	data, err := program.Encode(im)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := program.Decode(data); err == nil {
		t.Fatal("Decode accepted the wrapped procedure table")
	}
	// The last procedure of the table is checked too.
	im = wrappedSort(t)
	im.ProcByName("main").Size = 8
	last := &im.Procs[len(im.Procs)-1]
	last.Size = -last.Addr + 4
	if err := im.Validate(); err == nil {
		t.Fatalf("Validate accepted the last procedure %s wrapping past 2^32", last.Name)
	}
	// A procedure ending exactly at 2^32 does not wrap.
	last.Size = -last.Addr
	if err := im.Validate(); err != nil {
		t.Fatalf("a procedure ending at 2^32 is valid: %v", err)
	}
}
