package program_test

import (
	"bytes"
	"compress/gzip"
	"errors"
	"testing"

	_ "repro/internal/codec/all" // register every shipped codec
	"repro/internal/core"
	"repro/internal/program"
	"repro/internal/synth"
)

// FuzzImageLoad feeds arbitrary bytes to the image loader. Load must
// either reject them with an error or accept an image whose encoding
// loads again and re-encodes byte-equal. It must never panic. A file in
// the retired gzip+JSON format must get ErrLegacyImage. The seed corpus
// holds the package tests' sample image and a compressed random synth
// program, a truncation of each, and a legacy gzip file.
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
	var legacy bytes.Buffer
	zw := gzip.NewWriter(&legacy)
	zw.Write([]byte(`{"format":"clr32-image","version":1,"image":{"Entry":4194304}}`))
	zw.Close()
	f.Add(legacy.Bytes())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		im, err := program.Load(bytes.NewReader(data))
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
