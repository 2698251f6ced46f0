package program

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sampleImage() *Image {
	return &Image{
		Entry: 0x400000,
		Segments: []*Segment{
			seg(SegText, 0x400000, 0x34020001, 0x0000000C),
			seg(SegData, DataBase, 0xDEADBEEF),
			{Name: SegText + ".virtual", Base: CompBase, Data: []byte{1, 2, 3, 4}, Virtual: true},
		},
		Symbols: map[string]uint32{"main": 0x400000},
		Procs:   []Procedure{{Name: "main", Addr: 0x400000, Size: 8}},
		Relocs:  []Reloc{{Kind: RelJ26, Seg: SegText, Off: 0, Sym: "main"}},
		Compress: &CompressionInfo{
			Scheme: SchemeDict, CompStart: CompBase, CompEnd: CompBase + 4,
			DictBase: CompDataBase, IndicesBase: CompDataBase + 64, ShadowRF: true,
		},
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	im := sampleImage()
	data, err := Encode(im)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(im, got) {
		t.Fatalf("round trip mismatch:\n%+v\nvs\n%+v", im, got)
	}
}

func TestSaveLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.img")
	im := sampleImage()
	if err := SaveFile(path, im); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Entry != im.Entry || len(got.Segments) != len(im.Segments) {
		t.Fatal("file round trip mismatch")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.img")); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	valid, err := Encode(sampleImage())
	if err != nil {
		t.Fatal(err)
	}
	file := func(edit func(*imageFile)) []byte {
		im := sampleImage()
		f := imageFile{Format: fileFormat, Version: fileVersion, Entry: im.Entry, Segments: im.Segments,
			Symbols: []symbol{{"a", im.Entry}, {"b", im.Entry}}}
		edit(&f)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&f); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var legacy bytes.Buffer
	zw := gzip.NewWriter(&legacy)
	zw.Write([]byte(`{"format":"clr32-image","version":1}`))
	zw.Close()
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"text", []byte("not an image"), "not an image file"},
		{"empty", nil, "not an image file"},
		{"truncated", valid[:len(valid)-3], "not an image file"},
		{"trailing bytes", append(valid[:len(valid):len(valid)], 0), "1 bytes after the image"},
		{"legacy gzip+JSON", legacy.Bytes(), "rebuild it with ccasm or cccompress"},
		{"wrong format", file(func(f *imageFile) { f.Format = "elf" }), "unknown format"},
		{"wrong version", file(func(f *imageFile) { f.Version = 1 }), "unsupported version 1"},
		{"unsorted symbols", file(func(f *imageFile) { f.Symbols[0].Name = "c" }), "out of order"},
		{"duplicate symbols", file(func(f *imageFile) { f.Symbols[1].Name = "a" }), "out of order"},
		{"entry outside segments", file(func(f *imageFile) { f.Entry = 4 }), "not inside any segment"},
	} {
		_, err := Decode(tc.data)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	if _, err := Decode(legacy.Bytes()); !errors.Is(err, ErrLegacyImage) {
		t.Errorf("legacy file: got %v, want ErrLegacyImage", err)
	}
}

// Saving one image twice, or saving what was loaded from a file, gives
// the file's bytes: gob writes maps in iteration order, so a symbol
// table large enough to iterate differently from run to run would
// otherwise change the bytes (and the manifest digest of the file).
func TestSaveIsDeterministic(t *testing.T) {
	im := sampleImage()
	for i := 0; i < 150; i++ {
		im.Symbols[fmt.Sprintf("sym%03d", i)] = im.Entry + uint32(4*i)
	}
	first, err := Encode(im)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		data, err := Encode(im)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, first) {
			t.Fatalf("save %d differs from the first", i+2)
		}
	}
	loaded, err := Decode(first)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Encode(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, first) {
		t.Fatal("re-encoding a loaded image changed its bytes")
	}
}

func TestLoadRejectsWrongFormat(t *testing.T) {
	data, err := Encode(sampleImage())
	if err != nil {
		t.Fatal(err)
	}
	// Decode the valid one first to prove the baseline works.
	if _, err := Decode(data); err != nil {
		t.Fatal(err)
	}
	// An invalid image (overlapping segments) must fail validation.
	bad := sampleImage()
	bad.Segments = append(bad.Segments, seg(".dup", 0x400000, 1))
	if data, err = Encode(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data); err == nil {
		t.Fatal("invalid image must fail Decode validation")
	}
}

func TestDisassembleImage(t *testing.T) {
	im := sampleImage()
	out := DisassembleImage(im)
	if !strings.Contains(out, "main:") {
		t.Fatalf("missing proc header:\n%s", out)
	}
	if !strings.Contains(out, "ori $v0, $zero, 0x1") {
		t.Fatalf("missing instruction:\n%s", out)
	}
	if !strings.Contains(out, "syscall") {
		t.Fatalf("missing syscall:\n%s", out)
	}
	if strings.Contains(out, SegData) {
		t.Fatal("data segments must not be disassembled")
	}
}

// Property: arbitrary generated images survive Encode/Decode byte-exactly.
func TestQuickSaveLoadRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nSegs := r.Intn(4) + 1
		im := &Image{Symbols: map[string]uint32{}}
		base := uint32(0x400000)
		for i := 0; i < nSegs; i++ {
			data := make([]byte, (r.Intn(16)+1)*4)
			r.Read(data)
			im.Segments = append(im.Segments, &Segment{
				Name:    fmt.Sprintf(".s%d", i),
				Base:    base,
				Data:    data,
				Virtual: r.Intn(2) == 0,
			})
			base += uint32(len(data)) + uint32(r.Intn(1024)+4)&^3
		}
		im.Entry = im.Segments[0].Base
		im.Symbols["e"] = im.Entry
		data, err := Encode(im)
		if err != nil {
			return false
		}
		got, err := Decode(data)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(im, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
