package dict

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/program"
	"repro/internal/synth"
)

func wordsToBytes(ws []uint32) []byte {
	out := make([]byte, 4*len(ws))
	for i, w := range ws {
		binary.LittleEndian.PutUint32(out[4*i:], w)
	}
	return out
}

func TestCompressExample(t *testing.T) {
	// Figure 1 of the paper: repeated instructions share an index.
	text := wordsToBytes([]uint32{100, 200, 200, 100, 200})
	c, err := Compress(text, Index16)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Dict) != 2 {
		t.Fatalf("dict size = %d", len(c.Dict))
	}
	// 200 appears 3 times, 100 twice: 200 gets index 0.
	if c.Dict[0] != 200 || c.Dict[1] != 100 {
		t.Fatalf("dict order = %v", c.Dict)
	}
	want := []uint16{1, 0, 0, 1, 0}
	for i, x := range c.Indices {
		if x != want[i] {
			t.Fatalf("indices = %v", c.Indices)
		}
	}
	if got := c.Decompress(); !bytes.Equal(got, text) {
		t.Fatal("round trip failed")
	}
	// size: 5 indices * 2 + 2 entries * 4 = 18; original 20.
	if c.CompressedSize() != 18 {
		t.Fatalf("size = %d", c.CompressedSize())
	}
}

func TestRatioFormula(t *testing.T) {
	// ratio = 0.5 + unique/total for 16-bit indices.
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		total := 2000 + r.Intn(3000)
		unique := 100 + r.Intn(500)
		words := make([]uint32, total)
		for i := range words {
			if i < unique {
				words[i] = uint32(i) | 0x10000000 // force distinct
			} else {
				words[i] = uint32(r.Intn(unique)) | 0x10000000
			}
		}
		c, err := Compress(wordsToBytes(words), Index16)
		if err != nil {
			t.Fatal(err)
		}
		want := 0.5 + float64(len(c.Dict))/float64(total)
		if got := float64(c.CompressedSize()) / float64(4*total); got < want-1e-9 || got > want+1e-9 {
			t.Fatalf("ratio = %f, want %f", got, want)
		}
	}
}

func TestDictionaryFull(t *testing.T) {
	words := make([]uint32, 300)
	for i := range words {
		words[i] = uint32(i)
	}
	_, err := Compress(wordsToBytes(words), Index8)
	var full *ErrDictionaryFull
	if !errorsAs(err, &full) {
		t.Fatalf("err = %v", err)
	}
	if full.Unique != 300 || full.Max != 256 {
		t.Fatalf("err detail = %+v", full)
	}
	if _, err := Compress(wordsToBytes(words), Index16); err != nil {
		t.Fatalf("16-bit should fit: %v", err)
	}
}

func errorsAs(err error, target **ErrDictionaryFull) bool {
	if err == nil {
		return false
	}
	e, ok := err.(*ErrDictionaryFull)
	if ok {
		*target = e
	}
	return ok
}

func TestBadLength(t *testing.T) {
	if _, err := Compress([]byte{1, 2, 3}, Index16); err == nil {
		t.Fatal("expected length error")
	}
}

func TestIndex8Serialisation(t *testing.T) {
	words := []uint32{7, 7, 9, 7}
	c, err := Compress(wordsToBytes(words), Index8)
	if err != nil {
		t.Fatal(err)
	}
	ib := c.IndexBytes()
	if len(ib) != 4 {
		t.Fatalf("index bytes = %d", len(ib))
	}
	c16, _ := Compress(wordsToBytes(words), Index16)
	if len(c16.IndexBytes()) != 8 {
		t.Fatal("16-bit index bytes wrong")
	}
}

func TestDictBytesLayout(t *testing.T) {
	words := []uint32{0xAABBCCDD, 0xAABBCCDD, 0x11223344}
	c, _ := Compress(wordsToBytes(words), Index16)
	db := c.DictBytes()
	if binary.LittleEndian.Uint32(db[0:]) != 0xAABBCCDD {
		t.Fatal("entry 0 must be the most frequent word")
	}
	if binary.LittleEndian.Uint32(db[4:]) != 0x11223344 {
		t.Fatal("entry 1 wrong")
	}
}

// Property: Decompress(Compress(x)) == x for arbitrary word streams with
// bounded uniqueness.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw)%2048 + 1
		words := make([]uint32, n)
		pool := r.Intn(200) + 1
		for i := range words {
			words[i] = uint32(r.Intn(pool)) * 2654435761
		}
		text := wordsToBytes(words)
		c, err := Compress(text, Index16)
		if err != nil {
			return false
		}
		return bytes.Equal(c.Decompress(), text)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: every index points into the dictionary and decodes to the
// original word at that position.
func TestQuickIndexValidity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		words := make([]uint32, 500)
		for i := range words {
			words[i] = uint32(r.Intn(64))
		}
		c, err := Compress(wordsToBytes(words), Index8)
		if err != nil {
			return false
		}
		for i, x := range c.Indices {
			if int(x) >= len(c.Dict) || c.Dict[x] != words[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// refCompress is the map-based ranker Compress replaced, kept as the
// reference its output must match byte for byte.
func refCompress(text []byte, bits IndexBits) (*Compressed, error) {
	if len(text)%4 != 0 {
		return nil, fmt.Errorf("dict: text length %d not a multiple of 4", len(text))
	}
	n := len(text) / 4
	words := make([]uint32, n)
	type stat struct {
		count int
		first int
	}
	freq := make(map[uint32]*stat, n/4)
	for i := 0; i < n; i++ {
		w := binary.LittleEndian.Uint32(text[4*i:])
		words[i] = w
		if s := freq[w]; s != nil {
			s.count++
		} else {
			freq[w] = &stat{count: 1, first: i}
		}
	}
	if len(freq) > bits.MaxEntries() {
		return nil, &ErrDictionaryFull{Unique: len(freq), Max: bits.MaxEntries()}
	}
	dict := make([]uint32, 0, len(freq))
	for w := range freq {
		dict = append(dict, w)
	}
	sort.Slice(dict, func(i, j int) bool {
		a, b := freq[dict[i]], freq[dict[j]]
		if a.count != b.count {
			return a.count > b.count
		}
		return a.first < b.first
	})
	index := make(map[uint32]uint16, len(dict))
	for i, w := range dict {
		index[w] = uint16(i)
	}
	indices := make([]uint16, n)
	for i, w := range words {
		indices[i] = index[w]
	}
	return &Compressed{Bits: bits, Dict: dict, Indices: indices}, nil
}

// sameAsReference reports how Compress and refCompress differ on text,
// or "" when their dictionaries, indices and errors are identical.
func sameAsReference(text []byte, bits IndexBits) string {
	got, gotErr := Compress(text, bits)
	want, wantErr := refCompress(text, bits)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		return fmt.Sprintf("error %v, reference %v", gotErr, wantErr)
	}
	if wantErr != nil {
		return ""
	}
	switch {
	case !bytes.Equal(got.DictBytes(), want.DictBytes()):
		return "dictionary differs"
	case len(got.Indices) != len(want.Indices):
		return fmt.Sprintf("%d indices, reference %d", len(got.Indices), len(want.Indices))
	case !bytes.Equal(got.IndexBytes(), want.IndexBytes()):
		return "index bytes differ"
	}
	for i := range got.Indices {
		if got.Indices[i] != want.Indices[i] {
			return fmt.Sprintf("index %d = %d, reference %d", i, got.Indices[i], want.Indices[i])
		}
	}
	return ""
}

// TestMatchesReferenceRanker holds Compress to the map-based ranker's
// exact output on every synthetic benchmark's text, on a program whose
// words are all distinct, on a program too large for the dictionary,
// and on empty input.
func TestMatchesReferenceRanker(t *testing.T) {
	for _, p := range synth.Benchmarks() {
		im, err := synth.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		text := im.Segment(program.SegText).Data
		for _, bits := range []IndexBits{Index16, Index8} {
			if diff := sameAsReference(text, bits); diff != "" {
				t.Errorf("%s/%d-bit: %s", p.Name, bits, diff)
			}
		}
	}
	distinct := make([]uint32, 1<<16)
	for i := range distinct {
		distinct[i] = uint32(i)
	}
	for name, text := range map[string][]byte{
		"all-distinct": wordsToBytes(distinct),
		"overfull":     wordsToBytes(append(distinct, 1<<20)),
		"empty":        nil,
	} {
		if diff := sameAsReference(text, Index16); diff != "" {
			t.Errorf("%s: %s", name, diff)
		}
	}
}

// Property: Compress matches the reference ranker on random streams of
// varied length and uniqueness, including many equal counts.
func TestQuickMatchesReferenceRanker(t *testing.T) {
	f := func(seed int64, nRaw uint16, poolRaw uint16) bool {
		r := rand.New(rand.NewSource(seed))
		words := make([]uint32, int(nRaw)%4096)
		pool := int(poolRaw)%1024 + 1
		for i := range words {
			words[i] = uint32(r.Intn(pool)) * 40503
		}
		return sameAsReference(wordsToBytes(words), Index16) == "" &&
			sameAsReference(wordsToBytes(words), Index8) == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
