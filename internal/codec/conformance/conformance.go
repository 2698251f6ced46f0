// Package conformance is the cross-codec contract suite: one reusable
// battery of checks that every registered codec must pass, exercised by
// go test over the whole registry (conformance_test.go) and reusable by
// out-of-tree codec packages against their own implementation.
//
// The checks encode what "a working codec" means in this system:
//
//   - interface-sanity: the declared geometry and cost model are
//     internally consistent (positive alignment, word-multiple fill
//     size, a non-empty ratio window).
//   - encode-determinism: Encode is a pure function of its input — two
//     calls yield byte-identical artifacts (the whole experiment engine
//     assumes images are reproducible).
//   - round-trip: the byte-level reference decoder reconstructs the
//     golden program text exactly from the segments of a built image.
//   - lockstep: a compressed image commits the same architectural state
//     as its native build, instruction by instruction, over every
//     testdata program and both register-file variants.
//   - handler-proof: the static invisibility proof (internal/analysis)
//     reports nothing on either handler variant.
//   - image-invariants: the full image analyzer reports no errors on a
//     built image.
//   - store-confinement: dynamically, every store the handler commits
//     targets the $sp red zone or the codec's declared scratch RAM —
//     the runtime complement of the static scratch-pointer proof.
//   - predecode: simulating with the predecoded fetch path and with the
//     reference decode-every-cycle path, which looks every fetch up in
//     the I-cache, ends in bit-identical machine state: statistics,
//     both register banks, memory, both caches (clock, LRU stamps and
//     counters included) and the predictor.
//   - replay: a run that replays recorded handler activations and a
//     ReplayCheck run, which interprets each and checks it against its
//     recording, end in bit-identical machine state.
//   - telemetry: the CPI stack sums exactly to the cycle count.
//   - ratio: the measured compression ratio falls inside the codec's
//     own declared [RatioMin, RatioMax] window.
package conformance

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/asm"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/decomp"
	"repro/internal/fastpath"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/synth"
	"repro/internal/verify"
)

// Violation is one failed conformance check.
type Violation struct {
	Check  string // stable check name, e.g. "round-trip", "lockstep"
	Detail string
}

func (v Violation) String() string { return v.Check + ": " + v.Detail }

// Config tunes a conformance run.
type Config struct {
	// Programs are the native images to exercise. Empty means every
	// assembly program under the repository's testdata directory.
	Programs []Program
	// MaxInstr bounds each simulation (0 = 50M).
	MaxInstr uint64
}

// Program is one named native image.
type Program struct {
	Name  string
	Image *program.Image
}

// redZoneBytes bounds how far below the user $sp a handler may store:
// generously past the largest register save area any handler needs.
const redZoneBytes = 256

// ratioMinTextBytes is the smallest .text the ratio check applies to:
// below it, fixed per-image overheads (alignment padding, tables, the
// LAT, scratch RAM) dominate and the declared ratio window is
// meaningless. The default program set includes a synthetic benchmark
// above this size so every codec's window is actually exercised.
const ratioMinTextBytes = 16 * 1024

// Check runs the full battery against c and returns every violation.
// A nil config uses the defaults.
func Check(c codec.Codec, cfg *Config) []Violation {
	if cfg == nil {
		cfg = &Config{}
	}
	maxInstr := cfg.MaxInstr
	if maxInstr == 0 {
		maxInstr = 50_000_000
	}
	progs := cfg.Programs
	var vs []Violation
	if len(progs) == 0 {
		var err error
		progs, err = DefaultPrograms()
		if err != nil {
			return []Violation{{Check: "setup", Detail: err.Error()}}
		}
	}
	add := func(check, format string, args ...interface{}) {
		vs = append(vs, Violation{Check: check, Detail: fmt.Sprintf(format, args...)})
	}

	vs = append(vs, checkInterface(c)...)
	vs = append(vs, checkHandlerProof(c)...)

	for _, p := range progs {
		for _, shadowRF := range []bool{false, true} {
			label := fmt.Sprintf("%s shadowRF=%v", p.Name, shadowRF)
			res, err := core.CompressWith(p.Image, c, core.Options{
				Scheme: program.Scheme(c.Name()), ShadowRF: shadowRF})
			if err != nil {
				add("build", "%s: %v", label, err)
				continue
			}
			vs = append(vs, checkImage(c, label, p.Image, res, maxInstr)...)
		}
	}
	return vs
}

// Run executes the battery against c and fails t with every violation.
func Run(t *testing.T, c codec.Codec) {
	t.Helper()
	for _, v := range Check(c, nil) {
		t.Errorf("%s: %s", c.Name(), v)
	}
}

// checkInterface validates the declared geometry and cost model.
func checkInterface(c codec.Codec) []Violation {
	var vs []Violation
	add := func(format string, args ...interface{}) {
		vs = append(vs, Violation{Check: "interface-sanity", Detail: fmt.Sprintf(format, args...)})
	}
	if c.Name() == "" {
		add("empty codec name")
	}
	geo := c.Geometry()
	if geo.Align <= 0 || geo.Align%4 != 0 {
		add("alignment %d is not a positive word multiple", geo.Align)
	}
	if geo.FillBytes%4 != 0 || geo.FillBytes < 0 {
		add("fill size %d is not a non-negative word multiple", geo.FillBytes)
	}
	if geo.FillBytes != 0 && geo.Align%geo.FillBytes != 0 && geo.FillBytes%geo.Align != 0 {
		add("fill size %d and alignment %d are incommensurate", geo.FillBytes, geo.Align)
	}
	if geo.ScratchBytes < 0 {
		add("negative scratch size %d", geo.ScratchBytes)
	}
	cost := c.Cost()
	if cost.RatioMin <= 0 || cost.RatioMax <= cost.RatioMin {
		add("ratio window [%g,%g] is empty or unbounded below", cost.RatioMin, cost.RatioMax)
	}
	if cost.FillReads < 0 {
		add("negative fill-read count %d", cost.FillReads)
	}
	return vs
}

// checkHandlerProof runs the static invisibility proof on both handler
// variants: any finding at all is a violation.
func checkHandlerProof(c codec.Codec) []Violation {
	var vs []Violation
	for _, shadowRF := range []bool{false, true} {
		src, err := c.HandlerSource(shadowRF)
		if err != nil {
			vs = append(vs, Violation{Check: "handler-proof",
				Detail: fmt.Sprintf("shadowRF=%v: source: %v", shadowRF, err)})
			continue
		}
		seg, err := decomp.BuildSource(c.Name(), src)
		if err != nil {
			vs = append(vs, Violation{Check: "handler-proof",
				Detail: fmt.Sprintf("shadowRF=%v: %v", shadowRF, err)})
			continue
		}
		rep := &analysis.Report{}
		analysis.AnalyzeHandlerSegment(seg, analysis.HandlerInfo{
			Name:         c.Name(),
			ShadowRF:     shadowRF,
			ScratchBytes: c.Geometry().ScratchBytes,
		}, rep)
		for _, f := range rep.Findings {
			vs = append(vs, Violation{Check: "handler-proof",
				Detail: fmt.Sprintf("shadowRF=%v: %v", shadowRF, f)})
		}
	}
	return vs
}

// checkImage runs every per-image check on one built compressed image.
func checkImage(c codec.Codec, label string, native *program.Image, res *core.Result, maxInstr uint64) []Violation {
	var vs []Violation
	add := func(check, format string, args ...interface{}) {
		vs = append(vs, Violation{Check: check, Detail: label + ": " + fmt.Sprintf(format, args...)})
	}
	im := res.Image

	// round-trip: the reference decoder must reconstruct the golden
	// text exactly from the image's own segments.
	text := im.Segment(program.SegText)
	if text == nil {
		add("round-trip", "image has no %s segment", program.SegText)
		return vs
	}
	enc := &codec.Encoded{}
	if seg := im.Segment(program.SegDict); seg != nil {
		enc.Dict = seg.Data
	}
	if seg := im.Segment(program.SegIndices); seg != nil {
		enc.Indices = seg.Data
	}
	if seg := im.Segment(program.SegLAT); seg != nil {
		enc.LAT = seg.Data
	}
	if got, err := c.Decode(enc, len(text.Data)); err != nil {
		add("round-trip", "decode: %v", err)
	} else if !bytes.Equal(got, text.Data) {
		i := 0
		for i < len(got) && i < len(text.Data) && got[i] == text.Data[i] {
			i++
		}
		add("round-trip", "decoded text diverges from golden at byte %d of %d", i, len(text.Data))
	}

	// encode-determinism: re-encoding the same golden must reproduce the
	// image's artifacts byte for byte.
	in := codec.Input{
		Golden:     text.Data,
		RegionBase: text.Base,
		RegionEnd:  text.End(),
		Procs:      im.Procs,
	}
	if enc2, err := c.Encode(in); err != nil {
		add("encode-determinism", "re-encode: %v", err)
	} else if !bytes.Equal(enc2.Dict, enc.Dict) ||
		!bytes.Equal(enc2.Indices, enc.Indices) ||
		!bytes.Equal(enc2.LAT, enc.LAT) {
		add("encode-determinism", "re-encoding the golden text yields different artifacts")
	}

	// geometry: the declared geometry must match the built image — using
	// the codec in hand, so unregistered codecs are checked too (the
	// image-invariants pass below re-checks via the registry).
	geo := c.Geometry()
	if geo.NeedsIndices && im.Segment(program.SegIndices) == nil {
		add("geometry", "codec declares NeedsIndices but the image has no %s segment", program.SegIndices)
	}
	if geo.NeedsLAT && im.Segment(program.SegLAT) == nil {
		add("geometry", "codec declares NeedsLAT but the image has no %s segment", program.SegLAT)
	}
	if geo.ScratchBytes > 0 {
		if d := im.Segment(program.SegDict); d == nil || len(d.Data) < geo.ScratchBytes {
			add("geometry", "codec declares %d scratch bytes but the %s segment cannot hold them",
				geo.ScratchBytes, program.SegDict)
		}
	}
	if ci := im.Compress; ci != nil && geo.Align > 0 &&
		(ci.CompStart%uint32(geo.Align) != 0 || (ci.CompEnd-ci.CompStart)%uint32(geo.Align) != 0) {
		add("geometry", "compressed region [%#x,%#x) not aligned to the declared %d bytes",
			ci.CompStart, ci.CompEnd, geo.Align)
	}

	// image-invariants: the full static analyzer must report no errors.
	for _, f := range analysis.AnalyzeImage(im).Findings {
		if f.Severity >= analysis.Error {
			add("image-invariants", "%v", f)
		}
	}

	// lockstep: identical architectural commits vs the native build.
	cfg := cpu.DefaultConfig()
	cfg.MaxInstr = maxInstr
	if err := verify.Lockstep(native, im, cfg, 0); err != nil {
		add("lockstep", "%v", err)
	}

	// store-confinement + telemetry on an instrumented run.
	vs = append(vs, checkRun(c, label, im, maxInstr)...)

	// predecode: the fast fetch path must not change a single bit of
	// machine state. The reference run looks every fetch up in the
	// I-cache, so the I-cache's clock, LRU stamps and access count pin
	// the fast path's batched hits.
	ckFast, err1 := runCheckpoint(im, maxInstr, func(*cpu.Config) {})
	ckRef, err2 := runCheckpoint(im, maxInstr, func(c *cpu.Config) { c.DisablePredecode = true })
	switch {
	case err1 != nil:
		add("predecode", "predecoded run: %v", err1)
	case err2 != nil:
		add("predecode", "reference run: %v", err2)
	default:
		if d := diffCheckpoints(ckFast, ckRef); d != "" {
			add("predecode", "predecoded and reference runs diverge in %s", d)
		}
	}

	// replay: every handler activation interpreted and checked against
	// its recording leaves what the replaying run left.
	ckCheck, err3 := runCheckpoint(im, maxInstr, func(c *cpu.Config) { c.ReplayCheck = true })
	switch {
	case err1 != nil:
	case err3 != nil:
		add("replay", "ReplayCheck run: %v", err3)
	default:
		if d := diffCheckpoints(ckFast, ckCheck); d != "" {
			add("replay", "replaying and checked runs diverge in %s", d)
		}
	}

	// ratio: inside the codec's own declared window, on programs large
	// enough that fixed overheads do not dominate.
	cost := c.Cost()
	if r := res.Ratio(); res.OriginalSize >= ratioMinTextBytes &&
		(r < cost.RatioMin || r > cost.RatioMax) {
		add("ratio", "compression ratio %.3f outside declared [%g,%g]", r, cost.RatioMin, cost.RatioMax)
	}
	return vs
}

// checkRun executes the image once with a trace hook asserting the
// dynamic store-confinement contract, then checks the telemetry
// invariant on the resulting stats.
func checkRun(c codec.Codec, label string, im *program.Image, maxInstr uint64) []Violation {
	var vs []Violation
	add := func(check, format string, args ...interface{}) {
		vs = append(vs, Violation{Check: check, Detail: label + ": " + fmt.Sprintf(format, args...)})
	}
	m, err := cpu.New(cpu.DefaultConfig())
	if err != nil {
		add("store-confinement", "cpu: %v", err)
		return vs
	}
	m.Cfg.MaxInstr = maxInstr
	if err := m.Load(im); err != nil {
		add("store-confinement", "load: %v", err)
		return vs
	}
	var scratchLo, scratchHi uint32
	if im.Compress != nil && c.Geometry().ScratchBytes > 0 {
		scratchLo = im.Compress.DictBase
		scratchHi = scratchLo + uint32(c.Geometry().ScratchBytes)
	}
	bad := 0
	m.AttachTrace(func(pc, instr uint32, handler bool) {
		if !handler || isa.Classify(instr) != isa.KindStore {
			return
		}
		// Stores never write registers, so the base register still
		// holds its pre-execute value at trace time.
		addr := m.Reg(isa.Rs(instr)) + uint32(isa.SImm(instr))
		sp := m.Reg(isa.RegSP)
		inRedZone := addr < sp && sp-addr <= redZoneBytes
		inScratch := scratchHi != 0 && addr >= scratchLo && addr < scratchHi
		if !inRedZone && !inScratch {
			if bad < 3 { // a broken handler would flood otherwise
				add("store-confinement",
					"handler store at pc %#x writes %#x: outside the red zone and the scratch RAM",
					pc, addr)
			}
			bad++
		}
	})
	if _, err := m.Run(); err != nil {
		add("store-confinement", "run: %v", err)
		return vs
	}
	s := m.Stats
	if got := s.CPIStack.Total(); got != s.Cycles {
		add("telemetry", "CPI stack sums to %d, cycles %d", got, s.Cycles)
	}
	if err := s.CPIStack.Check(s.Cycles); err != nil {
		add("telemetry", "%v", err)
	}
	return vs
}

// runCheckpoint executes im on the default machine as set changes it
// and returns the final machine state.
func runCheckpoint(im *program.Image, maxInstr uint64, set func(*cpu.Config)) (*fastpath.Checkpoint, error) {
	cfg := cpu.DefaultConfig()
	cfg.MaxInstr = maxInstr
	set(&cfg)
	m, err := cpu.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := m.Load(im); err != nil {
		return nil, err
	}
	if _, err := m.Run(); err != nil {
		return nil, err
	}
	return fastpath.Capture(m, nil), nil
}

// diffCheckpoints names the parts of the machine state a and b differ
// in ("" when none), their configurations aside.
func diffCheckpoints(a, b *fastpath.Checkpoint) string {
	var parts []string
	for _, p := range []struct {
		name string
		a, b any
	}{
		{"core state", a.Machine, b.Machine},
		{"memory", a.Memory, b.Memory},
		{"I-cache", a.ICache, b.ICache},
		{"D-cache", a.DCache, b.DCache},
		{"branch predictor", a.Bpred, b.Bpred},
	} {
		if !reflect.DeepEqual(p.a, p.b) {
			parts = append(parts, p.name)
		}
	}
	d := strings.Join(parts, ", ")
	if a.Machine.Stats != b.Machine.Stats {
		d += fmt.Sprintf(" (statistics %+v vs %+v)", a.Machine.Stats, b.Machine.Stats)
	}
	return d
}

// DefaultPrograms is the standard conformance program set: every
// testdata assembly program (small, structurally diverse) plus one
// synthetic benchmark big enough to exercise the ratio window.
func DefaultPrograms() ([]Program, error) {
	progs, err := TestdataPrograms()
	if err != nil {
		return nil, err
	}
	p, ok := synth.ByName("pegwit")
	if !ok {
		return nil, fmt.Errorf("conformance: pegwit workload missing")
	}
	im, err := synth.Build(p.Scale(0.05))
	if err != nil {
		return nil, fmt.Errorf("conformance: build pegwit: %v", err)
	}
	return append(progs, Program{Name: "pegwit-synth", Image: im}), nil
}

// TestdataPrograms assembles every .s program under the repository's
// testdata directory, located relative to this source file so callers
// in any package (and any working directory) get the same set.
func TestdataPrograms() ([]Program, error) {
	_, self, _, ok := runtime.Caller(0)
	if !ok {
		return nil, fmt.Errorf("conformance: cannot locate source file")
	}
	root := filepath.Join(filepath.Dir(self), "..", "..", "..", "testdata")
	files, err := filepath.Glob(filepath.Join(root, "*.s"))
	if err != nil || len(files) == 0 {
		return nil, fmt.Errorf("conformance: no testdata programs under %s: %v", root, err)
	}
	sort.Strings(files)
	var progs []Program
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		im, err := asm.Assemble(string(src))
		if err != nil {
			return nil, fmt.Errorf("conformance: assemble %s: %v", filepath.Base(path), err)
		}
		progs = append(progs, Program{Name: filepath.Base(path), Image: im})
	}
	return progs, nil
}
