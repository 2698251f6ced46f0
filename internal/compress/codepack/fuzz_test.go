package codepack

import (
	"bytes"
	"testing"
)

// FuzzRoundTrip checks compress->decompress identity, and equality with
// the reference ranker and writer, on arbitrary instruction streams
// (cut to whole groups).
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{1, 2, 3, 4}, GroupInstrs))
	f.Add(bytes.Repeat([]byte{0}, GroupBytes*3))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 1<<16 {
			return
		}
		text := raw[:len(raw)&^(GroupBytes-1)]
		c, err := Compress(text)
		if err != nil {
			t.Fatalf("aligned input rejected: %v", err)
		}
		if !bytes.Equal(c.Decompress(), text) {
			t.Fatal("round trip mismatch")
		}
		if diff := sameAsReference(text); diff != "" {
			t.Fatal(diff)
		}
	})
}
