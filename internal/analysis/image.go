package analysis

import (
	"repro/internal/codec"
	// Image analysis resolves schemes through the codec registry (for
	// geometry and scratch-RAM declarations), so every analyzer binary
	// must see the full registry — not just the builtins — or images of
	// registered non-builtin codecs are reported as unregistered.
	_ "repro/internal/codec/all"
	"repro/internal/isa"
	"repro/internal/program"
)

// AnalyzeImage runs every image-level rule plus the handler rules (when
// a decompressor segment is present) and returns the sorted report.
//
// Image rules check what the re-layout and compression pipeline must
// preserve for decompression to stay invisible (paper §3): every control
// transfer resolves to mapped code, compressed-region targets fall on
// lines the placement map can materialise, swic stays confined to the
// handler, and no procedure can run off its own end into whatever
// happens to be placed next.
func AnalyzeImage(im *program.Image) *Report {
	a := &analyzer{im: im, rep: &Report{}}
	a.geometry()
	a.buildUnits()
	a.unitRules()
	a.targetRules()
	a.reachability()
	a.unclaimedCode()
	if h := im.Segment(program.SegDecompressor); h != nil {
		info := HandlerInfo{Name: program.SegDecompressor, ShadowRF: false}
		if im.Compress != nil {
			info.ShadowRF = im.Compress.ShadowRF
			if c, err := codec.Lookup(string(im.Compress.Scheme)); err == nil {
				info.ScratchBytes = c.Geometry().ScratchBytes
			}
		}
		AnalyzeHandlerSegment(h, info, a.rep)
	}
	a.rep.Sort()
	return a.rep
}

// unit is one analyzed span of code: a procedure with its CFG.
type unit struct {
	proc program.Procedure
	g    *CFG
}

type analyzer struct {
	im    *program.Image
	rep   *Report
	units []unit
}

// fillBytes returns the decompression-line granularity of the image, or
// 0 when it has no fixed line (native images, procedure granularity).
// The scheme's registered codec declares it; an unregistered scheme is
// reported by geometry(), so 0 (no line check) is the right fallback.
func (a *analyzer) fillBytes() uint32 {
	if a.im.Compress == nil {
		return 0
	}
	c, err := codec.Lookup(string(a.im.Compress.Scheme))
	if err != nil {
		return 0
	}
	return uint32(c.Geometry().FillBytes)
}

// geometry cross-checks CompressionInfo against the segments: the
// decompressed region must exactly cover the virtual .text and be a
// whole number of decompression lines, and each base register the
// handler will read must point at its segment (paper Figure 2/3).
func (a *analyzer) geometry() {
	ci := a.im.Compress
	if ci == nil {
		return
	}
	add := func(format string, args ...interface{}) {
		a.rep.add(RuleCompGeometry, Error, 0, "", format, args...)
	}
	text := a.im.Segment(program.SegText)
	if text == nil || !text.Virtual {
		add("compressed image lacks a virtual %s segment", program.SegText)
	} else {
		if ci.CompStart != text.Base || ci.CompEnd != text.End() {
			add("compressed region [%#x,%#x) does not match %s [%#x,%#x)",
				ci.CompStart, ci.CompEnd, program.SegText, text.Base, text.End())
		}
	}
	if fb := a.fillBytes(); fb != 0 {
		if ci.CompStart%fb != 0 || (ci.CompEnd-ci.CompStart)%fb != 0 {
			add("compressed region [%#x,%#x) is not a whole number of %d-byte decompression lines",
				ci.CompStart, ci.CompEnd, fb)
		}
	}
	checkBase := func(name string, base uint32, required bool) {
		seg := a.im.Segment(name)
		switch {
		case seg == nil && required:
			add("scheme %s requires a %s segment", ci.Scheme, name)
		case seg != nil && base != seg.Base:
			add("%s base register %#x does not match segment base %#x", name, base, seg.Base)
		}
	}
	c, err := codec.Lookup(string(ci.Scheme))
	if err != nil {
		add("image compressed with unregistered scheme: %v", err)
		return
	}
	geo := c.Geometry()
	checkBase(program.SegDict, ci.DictBase, true)
	checkBase(program.SegIndices, ci.IndicesBase, geo.NeedsIndices)
	checkBase(program.SegLAT, ci.LATBase, geo.NeedsLAT)
	if a.im.Segment(program.SegDecompressor) == nil {
		add("compressed image has no %s segment", program.SegDecompressor)
	}
}

// buildUnits decodes each procedure into its CFG.
func (a *analyzer) buildUnits() {
	for _, p := range a.im.Procs {
		seg := a.im.SegmentAt(p.Addr)
		if seg == nil || !program.IsCodeSeg(seg.Name) || p.Size == 0 {
			continue
		}
		data := seg.Data[p.Addr-seg.Base:]
		n := int(p.Size)
		if n > len(data) {
			n = len(data)
		}
		words := make([]isa.Word, n/4)
		for i := range words {
			words[i] = seg.Word(p.Addr + uint32(4*i))
		}
		a.units = append(a.units, unit{proc: p, g: BuildCFG(p.Name, p.Addr, words)})
	}
}

// unitRules checks per-procedure properties: decodability, confinement
// of swic to the handler RAM, fallthrough off the procedure end, and
// intra-procedure dead blocks.
func (a *analyzer) unitRules() {
	for _, u := range a.units {
		reach := u.g.Reachable()
		for i, b := range u.g.Blocks {
			if !reach[i] {
				a.rep.add(RuleDeadCode, Warning, b.Start(), u.proc.Name,
					"unreachable block (%d instructions)", len(b.Instrs))
				continue
			}
			if b.FallsOff {
				a.rep.add(RuleFallthroughEnd, Error, b.Last().PC, u.proc.Name,
					"execution can fall off the end of the procedure")
			}
			for _, in := range b.Instrs {
				switch in.Kind {
				case isa.KindIllegal:
					a.rep.add(RuleIllegalInstr, Error, in.PC, u.proc.Name,
						"unrecognised encoding %#08x in reachable code", in.Word)
				case isa.KindSwic:
					a.rep.add(RuleSwicOutside, Error, in.PC, u.proc.Name,
						"swic outside the decompressor RAM: only the handler may write the I-cache")
				case isa.KindIret:
					a.rep.add(RuleSwicOutside, Error, in.PC, u.proc.Name,
						"iret outside the decompressor RAM")
				}
			}
		}
	}
}

// targetRules resolves every control transfer that leaves its procedure:
// the target must land inside some procedure (or the handler never
// reaches it), and in a compressed image its whole decompression line
// must be mapped so the handler can materialise it (paper §3.2).
func (a *analyzer) targetRules() {
	for _, u := range a.units {
		for _, b := range u.g.Blocks {
			for _, t := range b.ExtTargets {
				src := b.Last().PC
				w := b.Last().Word
				dst := a.im.ProcAt(t)
				if dst == nil {
					a.rep.add(RuleTargetBounds, Error, src, u.proc.Name,
						"%s targets %#x, outside every procedure",
						isa.Disassemble(src, w), t)
					continue
				}
				a.lineMapped(src, u.proc.Name, t)
				switch {
				case isJAL(w):
					if t != dst.Addr {
						a.rep.add(RuleCallMidProc, Warning, src, u.proc.Name,
							"jal targets %#x, %d bytes into %s", t, t-dst.Addr, dst.Name)
					}
				case b.Last().Kind == isa.KindBranch:
					a.rep.add(RuleBranchCrossProc, Warning, src, u.proc.Name,
						"conditional branch leaves %s for %s", u.proc.Name, dst.Name)
				}
			}
		}
	}
	// The entry point is a target too.
	if p := a.im.ProcAt(a.im.Entry); p == nil {
		a.rep.add(RuleTargetBounds, Error, a.im.Entry, "",
			"entry point %#x is outside every procedure", a.im.Entry)
	} else {
		a.lineMapped(0, "entry", a.im.Entry)
	}
}

// lineMapped checks that the decompression line containing target is
// fully inside the mapped compressed region.
func (a *analyzer) lineMapped(src uint32, unit string, target uint32) {
	ci := a.im.Compress
	fb := a.fillBytes()
	if ci == nil || fb == 0 {
		return
	}
	if target < ci.CompStart || target >= ci.CompEnd {
		return // native region target
	}
	line := target &^ (fb - 1)
	if line < ci.CompStart || line+fb > ci.CompEnd {
		a.rep.add(RuleTargetUnmapped, Error, src, unit,
			"target %#x lies on decompression line [%#x,%#x) not fully inside the mapped region [%#x,%#x)",
			target, line, line+fb, ci.CompStart, ci.CompEnd)
	}
}

// reachability walks the procedure-level call graph. Roots are the entry
// procedure and every procedure whose address is taken from a non-code
// segment (jump tables, function-pointer tables); edges are direct
// transfers plus address formation (la/HI16+LO16) in code, which is how
// indirect calls acquire their targets. Procedures no root reaches are
// dead code: bytes the compressed image pays for but can never execute.
func (a *analyzer) reachability() {
	if len(a.units) == 0 {
		return
	}
	procIdx := map[string]int{}
	for i, u := range a.units {
		procIdx[u.proc.Name] = i
	}
	atAddr := func(addr uint32) int {
		if p := a.im.ProcAt(addr); p != nil {
			if i, ok := procIdx[p.Name]; ok {
				return i
			}
		}
		return -1
	}

	// Reloc-derived references, attributed to the segment holding the site.
	edges := make([][]int, len(a.units))
	var roots []int
	if i := atAddr(a.im.Entry); i >= 0 {
		roots = append(roots, i)
	}
	for _, r := range a.im.Relocs {
		sym, ok := a.im.Symbols[r.Sym]
		if !ok {
			continue
		}
		dst := atAddr(sym + uint32(r.Add))
		if dst < 0 {
			continue
		}
		if program.IsCodeSeg(r.Seg) {
			seg := a.im.Segment(r.Seg)
			if seg == nil {
				continue
			}
			if src := atAddr(seg.Base + r.Off); src >= 0 {
				edges[src] = append(edges[src], dst)
				continue
			}
		}
		// Address taken from data (or from unclaimed code): global root.
		roots = append(roots, dst)
	}
	// Direct control transfers.
	for i, u := range a.units {
		for t := range u.g.ExternalTargets() {
			if dst := atAddr(t); dst >= 0 {
				edges[i] = append(edges[i], dst)
			}
		}
	}

	live := make([]bool, len(a.units))
	stack := roots
	for _, r := range roots {
		live[r] = true
	}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !live[i] {
			live[i] = true
		}
		for _, d := range edges[i] {
			if !live[d] {
				live[d] = true
				stack = append(stack, d)
			}
		}
	}
	for i, u := range a.units {
		if !live[i] {
			a.rep.add(RuleDeadCode, Warning, u.proc.Addr, u.proc.Name,
				"procedure is unreachable from the entry point (%d bytes of dead code)",
				u.proc.Size)
		}
	}
}

// unclaimedCode scans code-segment bytes outside every procedure: the
// layout engine pads the compressed region with nops, but anything else
// is code the procedure table cannot account for (Info only — it is
// unreachable by construction unless something jumps at it, which the
// target rules catch).
func (a *analyzer) unclaimedCode() {
	for _, seg := range a.im.CodeSegments() {
		for addr := seg.Base; addr+4 <= seg.End(); addr += 4 {
			if p := a.im.ProcAt(addr); p != nil {
				addr = uint32(p.End() - 4)
				continue
			}
			if w := seg.Word(addr); w != isa.NOP {
				a.rep.add(RuleUnclaimedCode, Info, addr, seg.Name,
					"non-nop word %#08x outside every procedure", w)
			}
		}
	}
}
