package codepack

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

func genText(r *rand.Rand, groups int, hiPool, loPool int) []byte {
	out := make([]byte, groups*GroupBytes)
	for i := 0; i < len(out)/4; i++ {
		hi := uint16(zipf(r, hiPool))
		lo := uint16(zipf(r, loPool))
		binary.LittleEndian.PutUint32(out[4*i:], uint32(hi)<<16|uint32(lo))
	}
	return out
}

// zipf draws a skewed value in [0,pool).
func zipf(r *rand.Rand, pool int) int {
	v := int(float64(pool) * r.Float64() * r.Float64() * r.Float64())
	if v >= pool {
		v = pool - 1
	}
	return v
}

func TestRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	text := genText(r, 64, 500, 3000)
	c, err := Compress(text)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Decompress(); !bytes.Equal(got, text) {
		t.Fatal("round trip failed")
	}
}

func TestBadLength(t *testing.T) {
	if _, err := Compress(make([]byte, 60)); err == nil {
		t.Fatal("expected length error")
	}
}

func TestCompressionBeatsNative(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	text := genText(r, 256, 400, 2000)
	c, err := Compress(text)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := c.Ratio(); ratio >= 0.9 {
		t.Fatalf("ratio = %.3f, expected substantial compression on skewed input", ratio)
	}
}

func TestDecodeGroupMatchesFullDecode(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	text := genText(r, 32, 300, 1000)
	c, err := Compress(text)
	if err != nil {
		t.Fatal(err)
	}
	full := c.Decompress()
	for g := 0; g < len(c.LAT); g++ {
		words := c.DecodeGroup(g)
		for i, w := range words {
			off := (g*GroupInstrs + i) * 4
			if binary.LittleEndian.Uint32(full[off:]) != w {
				t.Fatalf("group %d word %d mismatch", g, i)
			}
		}
	}
}

func TestGroupsAreHalfwordAligned(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	text := genText(r, 64, 100, 100)
	c, _ := Compress(text)
	for g, off := range c.LAT {
		if off&1 != 0 {
			t.Fatalf("group %d offset %d not halfword aligned", g, off)
		}
		if g > 0 && off <= c.LAT[g-1] {
			t.Fatalf("LAT not strictly increasing at %d", g)
		}
	}
}

func TestTableBytesHeader(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	text := genText(r, 16, 50, 60)
	c, _ := Compress(text)
	tb := c.TableBytes()
	if len(tb) < hdrSize {
		t.Fatal("tables too small")
	}
	if binary.LittleEndian.Uint16(tb[hdrHi0:]) != c.hi.rank0 {
		t.Fatal("rank0 hi wrong")
	}
	if binary.LittleEndian.Uint16(tb[hdrLo0:]) != c.lo.rank0 {
		t.Fatal("rank0 lo wrong")
	}
	offHi1 := binary.LittleEndian.Uint32(tb[hdrHi1Off:])
	if int(offHi1) != hdrSize {
		t.Fatalf("hi1 offset = %d", offHi1)
	}
	// Entry 0 of hi table1 must be rank-1 value.
	if len(c.hi.table1) > 0 {
		if binary.LittleEndian.Uint16(tb[offHi1:]) != c.hi.table1[0] {
			t.Fatal("hi table1[0] wrong")
		}
	}
	// All six offsets are within bounds and word-aligned.
	for _, hoff := range []int{hdrHi1Off, hdrLo1Off, hdrHi2Off, hdrLo2Off, hdrHi3Off, hdrLo3Off} {
		v := binary.LittleEndian.Uint32(tb[hoff:])
		if v%4 != 0 || int(v) > len(tb) {
			t.Fatalf("table offset at %#x = %d invalid", hoff, v)
		}
	}
}

func TestBitStreamRoundTrip(t *testing.T) {
	w := &bitWriter{}
	vals := []struct {
		v uint32
		k uint
	}{{0b1, 1}, {0b101, 3}, {0xFFFF, 16}, {0, 2}, {0x7FF, 11}, {0b110, 3}, {0x1F, 5}, {0xAB, 8}}
	for _, x := range vals {
		w.writeBits(x.v, x.k)
	}
	w.alignHalf()
	r := &bitReader{data: w.bytes()}
	for i, x := range vals {
		if got := r.take(x.k); got != x.v {
			t.Fatalf("value %d: got %#x, want %#x", i, got, x.v)
		}
	}
}

// Property: arbitrary bit sequences survive the writer/reader pair.
func TestQuickBitStream(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(200) + 1
		type item struct {
			v uint32
			k uint
		}
		items := make([]item, n)
		w := &bitWriter{}
		for i := range items {
			k := uint(r.Intn(16) + 1)
			v := r.Uint32() & (1<<k - 1)
			items[i] = item{v, k}
			w.writeBits(v, k)
		}
		w.alignHalf()
		rd := &bitReader{data: w.bytes()}
		for _, it := range items {
			if rd.take(it.k) != it.v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: compress/decompress identity over varied distributions.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		groups := r.Intn(20) + 1
		text := genText(r, groups, r.Intn(5000)+1, r.Intn(70000)+1)
		c, err := Compress(text)
		if err != nil {
			return false
		}
		return bytes.Equal(c.Decompress(), text)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAllEscapePath(t *testing.T) {
	// Force heavy use of the raw-literal escape: all-unique halfwords.
	text := make([]byte, 4*GroupBytes)
	for i := 0; i < len(text)/4; i++ {
		binary.LittleEndian.PutUint32(text[4*i:], uint32(i)<<16|uint32(0xFFFF-i))
	}
	c, err := Compress(text)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c.Decompress(), text) {
		t.Fatal("escape-heavy round trip failed")
	}
}

// refHalfCoder is the map-based ranker buildHalfCoder replaced, kept as
// the reference its tables and ranks must match.
func refHalfCoder(values []uint16) (*halfCoder, map[uint16]int) {
	type stat struct {
		count int
		first int
	}
	freq := make(map[uint16]*stat)
	for i, v := range values {
		if s := freq[v]; s != nil {
			s.count++
		} else {
			freq[v] = &stat{count: 1, first: i}
		}
	}
	ordered := make([]uint16, 0, len(freq))
	for v := range freq {
		ordered = append(ordered, v)
	}
	sort.Slice(ordered, func(i, j int) bool {
		a, b := freq[ordered[i]], freq[ordered[j]]
		if a.count != b.count {
			return a.count > b.count
		}
		return a.first < b.first
	})
	hc := &halfCoder{}
	rank := make(map[uint16]int, len(ordered))
	for r, v := range ordered {
		rank[v] = r
		switch {
		case r == 0:
			hc.rank0 = v
		case r <= class1Size:
			hc.table1 = append(hc.table1, v)
		case r <= class1Size+class2Size:
			hc.table2 = append(hc.table2, v)
		case r <= class1Size+class2Size+class3Size:
			hc.table3 = append(hc.table3, v)
		}
	}
	return hc, rank
}

// refCompress is Compress over the reference ranker.
func refCompress(text []byte) (*Compressed, error) {
	if len(text)%GroupBytes != 0 {
		return nil, fmt.Errorf("codepack: text length %d not a multiple of %d", len(text), GroupBytes)
	}
	n := len(text) / 4
	his := make([]uint16, n)
	los := make([]uint16, n)
	for i := 0; i < n; i++ {
		w := binary.LittleEndian.Uint32(text[4*i:])
		los[i] = uint16(w)
		his[i] = uint16(w >> 16)
	}
	hi, hiRank := refHalfCoder(his)
	lo, loRank := refHalfCoder(los)
	c := &Compressed{hi: hi, lo: lo, Instrs: n}
	w := &bitWriter{}
	for g := 0; g < n/GroupInstrs; g++ {
		c.LAT = append(c.LAT, uint32(len(w.bytes())))
		for i := g * GroupInstrs; i < (g+1)*GroupInstrs; i++ {
			encode(w, hiRank[his[i]], his[i])
			encode(w, loRank[los[i]], los[i])
		}
		w.alignHalf()
	}
	c.Stream = w.bytes()
	return c, nil
}

// sameAsReference reports how Compress and refCompress differ on text,
// or "" when their streams, LATs and tables are identical.
func sameAsReference(text []byte) string {
	got, err := Compress(text)
	if err != nil {
		return err.Error()
	}
	want, err := refCompress(text)
	if err != nil {
		return err.Error()
	}
	switch {
	case !bytes.Equal(got.Stream, want.Stream):
		return "stream differs"
	case !bytes.Equal(got.LATBytes(), want.LATBytes()):
		return "LAT differs"
	case !bytes.Equal(got.TableBytes(), want.TableBytes()):
		return "tables differ"
	case got.Instrs != want.Instrs:
		return fmt.Sprintf("%d instructions, reference %d", got.Instrs, want.Instrs)
	}
	return ""
}

// TestMatchesReferenceRanker holds Compress to the map-based ranker's
// exact output on every synthetic benchmark's text, on all-escape
// input, and on empty input.
func TestMatchesReferenceRanker(t *testing.T) {
	for _, p := range synth.Benchmarks() {
		im, err := synth.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		text := im.Segment(program.SegText).Data
		if diff := sameAsReference(text[:len(text)&^(GroupBytes-1)]); diff != "" {
			t.Errorf("%s: %s", p.Name, diff)
		}
	}
	// Every halfword value once per half: all but the first 2337 ranks
	// of each half escape to raw literals.
	escape := make([]byte, 4<<16)
	for i := 0; i < 1<<16; i++ {
		binary.LittleEndian.PutUint32(escape[4*i:], uint32(i)<<16|uint32(0xFFFF-i))
	}
	for name, text := range map[string][]byte{"all-escape": escape, "empty": nil} {
		if diff := sameAsReference(text); diff != "" {
			t.Errorf("%s: %s", name, diff)
		}
	}
}

// Property: Compress matches the reference ranker on random skewed
// inputs, including many equal counts.
func TestQuickMatchesReferenceRanker(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		text := genText(r, r.Intn(40), r.Intn(5000)+1, r.Intn(70000)+1)
		return sameAsReference(text) == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
