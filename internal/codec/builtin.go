package codec

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/compress/codepack"
	"repro/internal/compress/dict"
	"repro/internal/decomp"
	"repro/internal/program"
)

// The built-in codecs: the four schemes of the paper's evaluation plus
// the dict8 index-width ablation and the null "copy" decompressor. Each
// wraps the existing compressor package and the shipped handler source;
// registration happens in init so every binary that links the codec
// package resolves them by name.
func init() {
	Register(&dictCodec{bits: dict.Index16, name: "dict"})
	Register(&dictCodec{bits: dict.Index8, name: "dict8"})
	Register(codepackCodec{})
	Register(procdictCodec{})
	Register(copyCodec{})
}

// dictCodec is the paper's dictionary scheme (§3.1): unique instruction
// words in a dictionary, one fixed-width index per instruction. bits
// selects the index width (16 is the paper's configuration, 8 the
// ablation).
type dictCodec struct {
	bits dict.IndexBits
	name string
}

func (c *dictCodec) Name() string { return c.name }

func (c *dictCodec) Describe() string {
	return fmt.Sprintf("dictionary of unique instruction words, %d-bit indices (paper §3.1)", c.bits)
}

func (c *dictCodec) Geometry() Geometry {
	return Geometry{Align: decomp.LineBytes, FillBytes: decomp.LineBytes, NeedsIndices: true}
}

func (c *dictCodec) Encode(in Input) (*Encoded, error) {
	comp, err := dict.Compress(in.Golden, c.bits)
	if err != nil {
		return nil, err
	}
	return &Encoded{Dict: comp.DictBytes(), Indices: comp.IndexBytes()}, nil
}

func (c *dictCodec) Decode(enc *Encoded, size int) ([]byte, error) {
	return dict.DecompressBytes(enc.Dict, enc.Indices, c.bits, size)
}

func (c *dictCodec) HandlerSource(shadowRF bool) (string, error) {
	return decomp.Source(decomp.Variant{
		Scheme: program.SchemeDict, ShadowRF: shadowRF, IndexBits: c.bits})
}

func (c *dictCodec) Cost() CostModel {
	if c.bits == dict.Index8 {
		return CostModel{RatioMin: 0.2, RatioMax: 1.3}
	}
	return CostModel{RatioMin: 0.3, RatioMax: 1.6}
}

// Spill implements the §3.1 dictionary-overflow fallback: procedures
// are compressed in order until the dictionary is full; the remainder
// stays native.
func (c *dictCodec) Spill(text *program.Segment, procs []program.Procedure) int {
	// One slot is reserved for the nop padding the region may need.
	capacity := c.bits.MaxEntries() - 1
	// Procedures of no more words than the capacity cannot hold more
	// distinct words than it. Of the stand-ins, only ghostscript has
	// more than 65535 words.
	words := 0
	for _, p := range procs {
		words += int(p.Size / 4)
	}
	if words <= capacity {
		return 0
	}
	seen := dict.NewWordTable(capacity + 1)
	for i, p := range procs {
		for a := uint64(p.Addr); a+4 <= p.End(); a += 4 {
			if _, added := seen.Add(text.Word(uint32(a))); added && seen.Len() > capacity {
				return len(procs) - i
			}
		}
	}
	return 0
}

// codepackCodec is the CodePack scheme (§3.2): tagged variable-length
// halfword codes, 16-instruction groups, and a line-address table.
type codepackCodec struct{}

func (codepackCodec) Name() string { return string(program.SchemeCodePack) }

func (codepackCodec) Describe() string {
	return "CodePack variable-length halfword codes with a line-address table (paper §3.2)"
}

func (codepackCodec) Geometry() Geometry {
	return Geometry{
		Align:        codepack.GroupBytes,
		FillBytes:    codepack.GroupBytes,
		NeedsIndices: true,
		NeedsLAT:     true,
	}
}

func (codepackCodec) Encode(in Input) (*Encoded, error) {
	comp, err := codepack.Compress(in.Golden)
	if err != nil {
		return nil, err
	}
	return &Encoded{Dict: comp.TableBytes(), Indices: comp.Stream, LAT: comp.LATBytes()}, nil
}

func (codepackCodec) Decode(enc *Encoded, size int) ([]byte, error) {
	return codepack.DecompressBytes(enc.Dict, enc.Indices, enc.LAT, size)
}

func (codepackCodec) HandlerSource(shadowRF bool) (string, error) {
	return decomp.Source(decomp.Variant{Scheme: program.SchemeCodePack, ShadowRF: shadowRF})
}

func (codepackCodec) Cost() CostModel {
	return CostModel{FillReads: 1, RatioMin: 0.3, RatioMax: 1.2}
}

// procdictCodec is the procedure-granularity dictionary scheme
// (Kirovski et al., paper §2/§5.2): the dictionary codec plus a
// procedure-bounds table in the LAT slot, decompressing the whole
// procedure on any miss inside it.
type procdictCodec struct{}

func (procdictCodec) Name() string { return string(program.SchemeProcDict) }

func (procdictCodec) Describe() string {
	return "dictionary codec at procedure granularity with a bounds table (paper §2, §5.2)"
}

func (procdictCodec) Geometry() Geometry {
	return Geometry{Align: decomp.LineBytes, NeedsIndices: true, NeedsLAT: true}
}

func (procdictCodec) Encode(in Input) (*Encoded, error) {
	comp, err := dict.Compress(in.Golden, dict.Index16)
	if err != nil {
		return nil, err
	}
	return &Encoded{
		Dict:    comp.DictBytes(),
		Indices: comp.IndexBytes(),
		LAT:     procBoundsTable(in),
	}, nil
}

func (procdictCodec) Decode(enc *Encoded, size int) ([]byte, error) {
	return dict.DecompressBytes(enc.Dict, enc.Indices, dict.Index16, size)
}

func (procdictCodec) HandlerSource(shadowRF bool) (string, error) {
	return decomp.Source(decomp.Variant{Scheme: program.SchemeProcDict, ShadowRF: shadowRF})
}

func (procdictCodec) Cost() CostModel {
	return CostModel{FillReads: 2, RatioMin: 0.3, RatioMax: 1.7}
}

// procBoundsTable serialises the compressed-region procedure bounds for
// the procedure-granularity handler: [N, start_0..start_{N-1}, regionEnd],
// little-endian words, starts ascending.
func procBoundsTable(in Input) []byte {
	var starts []uint32
	for _, p := range in.Procs {
		if p.Addr >= in.RegionBase {
			starts = append(starts, p.Addr)
		}
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	out := make([]byte, 4*(len(starts)+2))
	binary.LittleEndian.PutUint32(out, uint32(len(starts)))
	for i, s := range starts {
		binary.LittleEndian.PutUint32(out[4*(1+i):], s)
	}
	binary.LittleEndian.PutUint32(out[4*(1+len(starts)):], in.RegionEnd)
	return out
}

// copyCodec is the null-compression ablation: the golden bytes are kept
// verbatim in memory and the handler copies the missed line, isolating
// the cost of the exception + swic mechanism itself.
type copyCodec struct{}

func (copyCodec) Name() string { return "copy" }

func (copyCodec) Describe() string {
	return "null decompressor: copies lines from a memory-backed golden image (ablation)"
}

func (copyCodec) Geometry() Geometry {
	return Geometry{Align: decomp.LineBytes, FillBytes: decomp.LineBytes}
}

func (copyCodec) Encode(in Input) (*Encoded, error) {
	return &Encoded{Dict: append([]byte(nil), in.Golden...)}, nil
}

func (copyCodec) Decode(enc *Encoded, size int) ([]byte, error) {
	if size > len(enc.Dict) {
		return nil, fmt.Errorf("copy: golden image has %d bytes, need %d", len(enc.Dict), size)
	}
	return append([]byte(nil), enc.Dict[:size]...), nil
}

func (copyCodec) HandlerSource(shadowRF bool) (string, error) {
	return decomp.Source(decomp.Variant{Scheme: "copy", ShadowRF: shadowRF})
}

func (copyCodec) Cost() CostModel {
	return CostModel{RatioMin: 0.99, RatioMax: 1.15}
}
