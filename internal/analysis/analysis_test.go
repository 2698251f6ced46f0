package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/synth"
)

// reportClean fails the test if the report has any warning-or-worse
// findings, printing each one.
func reportClean(t *testing.T, name string, rep *analysis.Report) {
	t.Helper()
	for _, f := range rep.AtLeast(analysis.Warning) {
		t.Errorf("%s: %s", name, f)
	}
}

// analyzeHandler runs the handler rules on a built decompressor.
func analyzeHandler(seg *program.Segment, name string, shadowRF bool) *analysis.Report {
	rep := &analysis.Report{}
	analysis.AnalyzeHandlerSegment(seg, analysis.HandlerInfo{Name: name, ShadowRF: shadowRF}, rep)
	rep.Sort()
	return rep
}

// TestSynthProgramsClean is the positive gate: the analyzer must report
// nothing on any shipped benchmark, native or compressed under either
// paper scheme, with and without the shadow register file.
func TestSynthProgramsClean(t *testing.T) {
	for _, p := range synth.Benchmarks() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			im, err := synth.Build(p)
			if err != nil {
				t.Fatal(err)
			}
			reportClean(t, p.Name+"/native", analysis.AnalyzeImage(im))
			for _, opt := range []core.Options{
				{Scheme: program.SchemeDict},
				{Scheme: program.SchemeDict, ShadowRF: true},
				{Scheme: program.SchemeCodePack},
				{Scheme: program.SchemeCodePack, ShadowRF: true},
			} {
				res, err := core.Compress(im, opt)
				if err != nil {
					t.Fatalf("%v: %v", opt.Scheme, err)
				}
				name := p.Name + "/" + string(opt.Scheme)
				if opt.ShadowRF {
					name += "+RF"
				}
				reportClean(t, name, analysis.AnalyzeImage(res.Image))
			}
		})
	}
}

// TestShippedHandlersClean is the regression gate on the decompressors:
// every handler variant the paper evaluates must verify clean against
// the invisibility contract.
func TestShippedHandlersClean(t *testing.T) {
	for _, v := range decomp.Variants() {
		seg, err := decomp.Build(v)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		reportClean(t, v.String(), analyzeHandler(seg, v.String(), v.ShadowRF))
	}
}

// TestCFGShape sanity-checks block splitting and edges on a handler CFG.
func TestCFGShape(t *testing.T) {
	seg, err := decomp.Build(decomp.Variant{Scheme: program.SchemeDict})
	if err != nil {
		t.Fatal(err)
	}
	g := analysis.BuildSegmentCFG("dict", seg)
	if len(g.Blocks) < 3 {
		t.Fatalf("dict handler CFG has %d blocks, want >= 3 (entry, loop, epilogue)", len(g.Blocks))
	}
	// The copy loop must appear as a back edge.
	hasBack := false
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if s <= b.Index {
				hasBack = true
			}
		}
	}
	if !hasBack {
		t.Error("dict handler CFG has no back edge; the copy loop is missing")
	}
	for i, ok := range g.Reachable() {
		if !ok {
			t.Errorf("block %d unreachable in dict handler", i)
		}
	}
	if end := g.Blocks[len(g.Blocks)-1].Last().PC + isa.InstrBytes; end != seg.Base+uint32(len(seg.Data)) {
		t.Errorf("CFG end %#x != segment end %#x", end, seg.Base+uint32(len(seg.Data)))
	}
}

// TestLivenessOnHandler checks the liveness solver's entry set on the
// single-RF dictionary handler: it reads $sp and the four registers it
// saves before defining anything else; a shadow-RF handler reads nothing.
func TestLivenessOnHandler(t *testing.T) {
	seg, err := decomp.Build(decomp.Variant{Scheme: program.SchemeDict})
	if err != nil {
		t.Fatal(err)
	}
	g := analysis.BuildSegmentCFG("dict", seg)
	in := analysis.ComputeLiveness(g, 0).In[0]
	for _, r := range []int{isa.RegSP, isa.RegT1, isa.RegT2, isa.RegT3, isa.RegT4} {
		if !in.Has(r) {
			t.Errorf("dict handler entry liveness missing %s", isa.RegName(r))
		}
	}

	seg, err = decomp.Build(decomp.Variant{Scheme: program.SchemeDict, ShadowRF: true})
	if err != nil {
		t.Fatal(err)
	}
	g = analysis.BuildSegmentCFG("dict+RF", seg)
	if in := analysis.ComputeLiveness(g, 0).In[0]; in != 0 {
		t.Errorf("dict+RF handler reads %v before writing", in.Regs())
	}
}

// TestDeadProcs checks the whole-procedure dead-code findings: a
// procedure nothing reaches is reported at its entry, and a shipped
// benchmark has none.
func TestDeadProcs(t *testing.T) {
	fixture, err := asm.Assemble(`
        .text
        .proc main
main:   jal   used
        move  $a0, $zero
        ori   $v0, $zero, 10
        syscall
        .endp
        .proc used
used:   jr    $ra
        .endp
        .proc unused
unused: jr    $ra
        .endp
        .entry main
`)
	if err != nil {
		t.Fatal(err)
	}
	if dead := deadProcs(fixture); len(dead) != 1 || dead[0] != "unused" {
		t.Errorf("fixture dead procedures = %v, want [unused]", dead)
	}
	p, _ := synth.ByName("pegwit")
	im, err := synth.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	if dead := deadProcs(im); len(dead) != 0 {
		t.Errorf("synth image reports dead procs: %v", dead)
	}
}

// deadProcs returns the procedures with a dead-code finding at their
// entry, which the analyzer makes for a procedure it proves unreachable
// (a dead block inside a live procedure is reported at the block).
func deadProcs(im *program.Image) []string {
	var dead []string
	for _, f := range analysis.AnalyzeImage(im).Findings {
		if p := im.ProcByName(f.Unit); f.Rule == analysis.RuleDeadCode && p != nil && p.Addr == f.PC {
			dead = append(dead, f.Unit)
		}
	}
	return dead
}

func BenchmarkAnalyzeImage(b *testing.B) {
	p, _ := synth.ByName("cc1")
	im, err := synth.Build(p)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Compress(im, core.Options{Scheme: program.SchemeDict})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := analysis.AnalyzeImage(res.Image)
		if rep.Count(analysis.Warning) != 0 {
			b.Fatal("unexpected findings")
		}
	}
}
