package lz

import (
	"bytes"
	"testing"
)

// FuzzRoundTrip checks compress→decompress identity on arbitrary input
// (padded to the block size, as core's layout guarantees). The seeded
// corpus under testdata/fuzz covers the format's edge cases: zero-length
// input, a match at the maximum usable window offset, and overlapping
// (run-length) copies.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{'a'}, 2*BlockBytes)) // off=1 overlapping copies
	// match at the maximum usable offset (253)
	f.Add(func() []byte {
		b := append([]byte("XYZ"), bytes.Repeat([]byte{'q'}, BlockBytes-6)...)
		return append(b, 'X', 'Y', 'Z')
	}())
	f.Add([]byte{0x00, 0x01, 0x02, 0x03})
	f.Fuzz(func(t *testing.T, src []byte) {
		golden := append([]byte(nil), src...)
		for len(golden)%BlockBytes != 0 {
			golden = append(golden, 0)
		}
		stream, lat, err := Compress(golden)
		if err != nil {
			t.Fatalf("compress: %v", err)
		}
		got, err := Decompress(stream, lat, len(golden))
		if err != nil {
			t.Fatalf("decompress own output: %v", err)
		}
		if !bytes.Equal(got, golden) {
			t.Fatal("round trip mismatch")
		}
	})
}

// FuzzDecodeBlock feeds arbitrary bytes to the block decoder: it must
// return an error or exactly BlockBytes of output, never panic and never
// read out of bounds.
func FuzzDecodeBlock(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00})             // ctrl then truncated literals
	f.Add([]byte{0x01, 0x00, 0xF0, 0xFF}) // copy with an out-of-window offset
	good, _, err := Compress(bytes.Repeat([]byte("abcd0123"), BlockBytes/8))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := decodeBlock(data, 0)
		if err == nil && len(out) != BlockBytes {
			t.Fatalf("no error but %d bytes, want %d", len(out), BlockBytes)
		}
	})
}
