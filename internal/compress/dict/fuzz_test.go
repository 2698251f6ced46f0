package dict

import (
	"bytes"
	"testing"
)

// FuzzCompress checks the round trip and equality with the reference
// ranker under both index widths, on arbitrary word streams.
func FuzzCompress(f *testing.F) {
	f.Add([]byte{})
	f.Add(wordsToBytes([]uint32{100, 200, 200, 100, 200}))
	f.Add(bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7, 8}, 40))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 1<<18 {
			return
		}
		text := raw[:len(raw)&^3]
		for _, bits := range []IndexBits{Index16, Index8} {
			if diff := sameAsReference(text, bits); diff != "" {
				t.Fatalf("%d-bit: %s", bits, diff)
			}
			c, err := Compress(text, bits)
			if err != nil {
				continue // a full dictionary, which the reference reports too
			}
			if !bytes.Equal(c.Decompress(), text) {
				t.Fatalf("%d-bit: round trip mismatch", bits)
			}
		}
	})
}
