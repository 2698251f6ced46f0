// Package core implements the paper's primary contribution: the
// software-managed code-decompression architecture. It rewrites a native
// program image into a compressed image whose code lives in main memory as
// a dictionary or CodePack representation, installs the matching software
// decompression handler, and lays out the native/compressed code regions
// for selective compression (paper §3, Figure 3).
package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/codec"
	_ "repro/internal/codec/all" // register every shipped codec
	"repro/internal/compress/dict"
	"repro/internal/decomp"
	"repro/internal/program"
)

// SchemeCopy is the null-compression ablation scheme: lines are "decoded"
// by copying them from a backed golden image, isolating the cost of the
// exception + swic mechanism.
const SchemeCopy program.Scheme = "copy"

// Options controls image compression.
type Options struct {
	Scheme   program.Scheme
	ShadowRF bool
	// IndexBits selects the dictionary codeword width (default Index16).
	IndexBits dict.IndexBits
	// NativeProcs names the procedures to keep as native code (selective
	// compression, §3.3). Empty means compress everything.
	NativeProcs map[string]bool
	// Order lays procedures out (within each region) in the given order
	// instead of preserving the original program order — the hook for the
	// profile-guided placement the paper proposes as future work (§5.3).
	// Procedures not listed follow in their original relative order.
	Order []string
}

// Result is a compressed program plus its size accounting.
type Result struct {
	Image *program.Image

	OriginalSize int // bytes of the original .text
	StoredSize   int // bytes of memory the code occupies after compression
	NativeBytes  int // bytes left as native code (selective compression)
}

// Ratio returns StoredSize/OriginalSize (Equation 1 of the paper).
func (r *Result) Ratio() float64 {
	if r.OriginalSize == 0 {
		return 1
	}
	return float64(r.StoredSize) / float64(r.OriginalSize)
}

// Compress rewrites the native image into a compressed image.
//
// Procedures in opts.NativeProcs stay in the memory-backed native region;
// the rest move to the compressed region, whose contents exist only in the
// I-cache and are materialised on demand by the decompression handler.
// Within each region procedures keep their original relative order, so the
// procedure-placement side-effects the paper reports (§5.3) arise here
// exactly as they did for the authors.
func Compress(native *program.Image, opts Options) (*Result, error) {
	if opts.IndexBits == 0 {
		opts.IndexBits = dict.Index16
	}
	cdc, err := codec.Lookup(opts.codecName())
	if err != nil {
		return nil, fmt.Errorf("core: %v", err)
	}
	return CompressWith(native, cdc, opts)
}

// CompressWith is Compress with an explicit codec instead of a registry
// lookup: the image records cdc.Name() as its scheme. The conformance
// suite uses it to exercise codec implementations — including
// deliberately broken ones — without registering them.
func CompressWith(native *program.Image, cdc codec.Codec, opts Options) (*Result, error) {
	if native.Compress != nil {
		return nil, fmt.Errorf("core: image is already compressed")
	}
	text := native.Segment(program.SegText)
	if text == nil {
		return nil, fmt.Errorf("core: image has no %s segment", program.SegText)
	}
	if len(native.Procs) == 0 {
		return nil, fmt.Errorf("core: image has no procedure table")
	}
	geo := cdc.Geometry()
	if geo.Align <= 0 || geo.Align%4 != 0 {
		return nil, fmt.Errorf("core: codec %s declares invalid alignment %d", cdc.Name(), geo.Align)
	}

	// Partition procedures. Within each region the original program
	// order is preserved (the paper's §3.3 behaviour) unless an explicit
	// placement order is given.
	ordered := orderProcs(native.Procs, opts.Order)
	natProcs, cmpProcs := partition(ordered, opts.NativeProcs, len(ordered))
	if len(cmpProcs) == 0 {
		return nil, fmt.Errorf("core: every procedure selected native; nothing to compress")
	}

	// Representation overflow fallback (paper §3.1): codecs whose
	// representation can fill up (the dictionary index space) report how
	// many trailing procedures must be left in the native code region.
	if sp, ok := cdc.(codec.Spiller); ok {
		if spill := sp.Spill(text, cmpProcs); spill > 0 {
			if spill == len(cmpProcs) {
				return nil, fmt.Errorf("core: dictionary overflows on the very first procedure; use 16-bit indices")
			}
			natProcs, cmpProcs = partition(ordered, opts.NativeProcs, len(cmpProcs)-spill)
		}
	}

	lay := newLayout(native, text, natProcs, cmpProcs, geo.Align)

	im, err := lay.build(native)
	if err != nil {
		return nil, err
	}

	// Compress the (relocated) bytes of the compressed region through
	// the codec's encoder.
	golden := im.Segment(program.SegText).Data
	enc, err := cdc.Encode(codec.Input{
		Golden:     golden,
		RegionBase: program.CompBase,
		RegionEnd:  program.CompBase + uint32(len(golden)),
		Procs:      im.Procs,
	})
	if err != nil {
		return nil, err
	}

	ci := &program.CompressionInfo{
		Scheme:    program.Scheme(cdc.Name()),
		CompStart: program.CompBase,
		CompEnd:   program.CompBase + uint32(len(golden)),
		ShadowRF:  opts.ShadowRF,
	}
	addSeg := func(name string, base uint32, data []byte) uint32 {
		if len(data) == 0 {
			return 0
		}
		im.Segments = append(im.Segments, &program.Segment{Name: name, Base: base, Data: data})
		return base
	}
	next := uint32(program.CompDataBase)
	ci.DictBase = addSeg(program.SegDict, next, enc.Dict)
	next += uint32(len(enc.Dict)+63) &^ 63
	ci.IndicesBase = addSeg(program.SegIndices, next, enc.Indices)
	next += uint32(len(enc.Indices)+63) &^ 63
	ci.LATBase = addSeg(program.SegLAT, next, enc.LAT)

	src, err := cdc.HandlerSource(opts.ShadowRF)
	if err != nil {
		return nil, err
	}
	handler, err := decomp.BuildSource(cdc.Name(), src)
	if err != nil {
		return nil, err
	}
	im.Segments = append(im.Segments, handler)
	im.Compress = ci

	if err := im.Validate(); err != nil {
		return nil, fmt.Errorf("core: compressed image invalid: %v", err)
	}
	return &Result{
		Image:        im,
		OriginalSize: len(text.Data),
		StoredSize:   len(enc.Dict) + len(enc.Indices) + len(enc.LAT) + lay.nativeLen(),
		NativeBytes:  lay.nativeLen(),
	}, nil
}

// codecName maps compression options to a registry name: the dict
// scheme with 8-bit indices is the separately registered dict8 codec;
// every other scheme name is already the registry key.
func (o Options) codecName() string {
	if o.Scheme == program.SchemeDict && o.IndexBits == dict.Index8 {
		return "dict8"
	}
	return string(o.Scheme)
}

// Schemes returns the registered scheme names, sorted — what the CLIs
// print in usage text and unknown-scheme errors.
func Schemes() []string { return codec.Names() }

// partition splits ordered into the native and the compressed region,
// each in ordered's order: the procedures native names stay native, and
// so does every other procedure past the first maxCmp.
func partition(ordered []program.Procedure, native map[string]bool, maxCmp int) (nat, comp []program.Procedure) {
	for _, p := range ordered {
		if native[p.Name] || len(comp) == maxCmp {
			nat = append(nat, p)
		} else {
			comp = append(comp, p)
		}
	}
	return nat, comp
}

// orderProcs applies an explicit placement order: listed procedures come
// first in list order, the rest keep their original relative order.
func orderProcs(procs []program.Procedure, order []string) []program.Procedure {
	if len(order) == 0 {
		return procs
	}
	rank := make(map[string]int, len(order))
	for i, name := range order {
		if _, dup := rank[name]; !dup {
			rank[name] = i
		}
	}
	// Unlisted procedures share the rank past the list; the stable sort
	// keeps them in their original order.
	key := func(p program.Procedure) int {
		if r, ok := rank[p.Name]; ok {
			return r
		}
		return len(order)
	}
	out := append([]program.Procedure(nil), procs...)
	slices.SortStableFunc(out, func(a, b program.Procedure) int { return cmp.Compare(key(a), key(b)) })
	return out
}

// layout assigns new addresses to procedures across the two code regions
// and rewrites symbols and relocation records accordingly.
type layout struct {
	text    *program.Segment
	natBuf  []byte
	cmpBuf  []byte
	moves   []move // old range -> new address, ascending by old address once built
	newSyms map[string]uint32
	procs   []program.Procedure
}

type move struct {
	oldAddr uint32
	size    uint32
	newAddr uint32
}

// newLayout places natProcs in the native region and cmpProcs in the
// compressed one, in the given orders. Both regions are sized exactly:
// the compressed one is padded to a multiple of align bytes with zero
// words, which are canonical nops (never executed; needed so whole
// lines/groups exist).
func newLayout(native *program.Image, text *program.Segment, natProcs, cmpProcs []program.Procedure, align int) *layout {
	size := func(procs []program.Procedure) int {
		n := 0
		for _, p := range procs {
			n += int(p.Size)
		}
		return n
	}
	cmpLen := (size(cmpProcs) + align - 1) / align * align
	l := &layout{
		text:    text,
		natBuf:  make([]byte, 0, size(natProcs)),
		cmpBuf:  make([]byte, 0, cmpLen),
		moves:   make([]move, 0, len(natProcs)+len(cmpProcs)),
		newSyms: make(map[string]uint32, len(native.Symbols)),
		procs:   make([]program.Procedure, 0, len(natProcs)+len(cmpProcs)),
	}
	for _, p := range natProcs {
		l.place(p, program.NativeBase, &l.natBuf)
	}
	for _, p := range cmpProcs {
		l.place(p, program.CompBase, &l.cmpBuf)
	}
	l.cmpBuf = l.cmpBuf[:cmpLen]
	return l
}

// place appends p's bytes to the region buffer based at base.
func (l *layout) place(p program.Procedure, base uint32, buf *[]byte) {
	na := base + uint32(len(*buf))
	*buf = append(*buf, l.text.Data[p.Addr-l.text.Base:][:p.Size]...)
	l.moves = append(l.moves, move{p.Addr, p.Size, na})
	l.procs = append(l.procs, program.Procedure{Name: p.Name, Addr: na, Size: p.Size})
}

func (l *layout) nativeLen() int { return len(l.natBuf) }

// remap translates an old .text address to its new address. The moves
// must be sorted by old address; procedures do not overlap, so only the
// last move starting at or below addr can hold it.
func (l *layout) remap(addr uint32) (uint32, bool) {
	i := sort.Search(len(l.moves), func(i int) bool { return l.moves[i].oldAddr > addr }) - 1
	if i < 0 || addr-l.moves[i].oldAddr >= l.moves[i].size {
		return 0, false
	}
	m := &l.moves[i]
	return m.newAddr + (addr - m.oldAddr), true
}

// build assembles the re-laid-out image (before compression segments).
func (l *layout) build(native *program.Image) (*program.Image, error) {
	im := &program.Image{Symbols: l.newSyms}
	// Equal old addresses only arise with an empty procedure, which
	// holds no address: sorting it first lets remap find the other.
	slices.SortFunc(l.moves, func(a, b move) int {
		return cmp.Or(cmp.Compare(a.oldAddr, b.oldAddr), cmp.Compare(a.size, b.size))
	})

	// Rebase symbols: text symbols move with their procedure, others stay.
	for name, addr := range native.Symbols {
		if l.text.Contains(addr) {
			na, ok := l.remap(addr)
			if !ok {
				// Symbol in text but outside every procedure (e.g. padding):
				// keep it only if nothing references it; drop silently.
				continue
			}
			l.newSyms[name] = na
		} else {
			l.newSyms[name] = addr
		}
	}

	// Non-text segments are copied; the two code regions are fresh.
	for _, s := range native.Segments {
		if s.Name == program.SegText {
			continue
		}
		im.Segments = append(im.Segments, &program.Segment{
			Name: s.Name, Base: s.Base, Data: append([]byte(nil), s.Data...), Virtual: s.Virtual})
	}
	if len(l.natBuf) > 0 {
		im.Segments = append(im.Segments, &program.Segment{
			Name: program.SegNative, Base: program.NativeBase, Data: l.natBuf})
	}
	im.Segments = append(im.Segments, &program.Segment{
		Name: program.SegText, Base: program.CompBase, Data: l.cmpBuf, Virtual: true})

	// Remap relocation records into their new segment and offset.
	for _, r := range native.Relocs {
		nr := r
		if r.Seg == program.SegText {
			oldAddr := l.text.Base + r.Off
			na, ok := l.remap(oldAddr)
			if !ok {
				return nil, fmt.Errorf("core: relocation site %#x outside every procedure", oldAddr)
			}
			if na >= program.CompBase {
				nr.Seg = program.SegText
				nr.Off = na - program.CompBase
			} else {
				nr.Seg = program.SegNative
				nr.Off = na - program.NativeBase
			}
		}
		im.Relocs = append(im.Relocs, nr)
	}
	if err := program.ApplyRelocs(im); err != nil {
		return nil, err
	}

	slices.SortFunc(l.procs, func(a, b program.Procedure) int { return cmp.Compare(a.Addr, b.Addr) })
	im.Procs = l.procs

	entry, ok := l.remap(native.Entry)
	if !ok {
		if l.text.Contains(native.Entry) {
			return nil, fmt.Errorf("core: entry %#x outside every procedure", native.Entry)
		}
		entry = native.Entry
	}
	im.Entry = entry
	return im, nil
}
