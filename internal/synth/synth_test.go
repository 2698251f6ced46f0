package synth

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/profile"
	"repro/internal/program"
)

func TestBenchmarkTableIsValid(t *testing.T) {
	benches := Benchmarks()
	if len(benches) != 8 {
		t.Fatalf("want the paper's 8 benchmarks, got %d", len(benches))
	}
	names := map[string]bool{}
	for _, p := range benches {
		if err := validate(p); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if names[p.Name] {
			t.Errorf("duplicate benchmark %s", p.Name)
		}
		names[p.Name] = true
	}
	for _, want := range []string{"cc1", "ghostscript", "go", "ijpeg", "mpeg2enc", "pegwit", "perl", "vortex"} {
		if !names[want] {
			t.Errorf("missing benchmark %s", want)
		}
	}
	if _, ok := ByName("cc1"); !ok {
		t.Fatal("ByName(cc1) failed")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName(nope) should fail")
	}
}

func TestBuildIsDeterministic(t *testing.T) {
	p, _ := ByName("pegwit")
	a, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := a.Segment(program.SegText), b.Segment(program.SegText)
	if !bytes.Equal(ta.Data, tb.Data) {
		t.Fatal("same seed must produce identical code")
	}
	da, db := a.Segment(program.SegData), b.Segment(program.SegData)
	if !bytes.Equal(da.Data, db.Data) {
		t.Fatal("same seed must produce identical data")
	}
}

func TestAllBenchmarksBuildAndValidate(t *testing.T) {
	for _, p := range Benchmarks() {
		im, err := Build(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if err := im.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if len(im.Procs) != p.TotalProcs+1 { // +1 for main
			t.Fatalf("%s: %d procs, want %d", p.Name, len(im.Procs), p.TotalProcs+1)
		}
		if im.Entry != im.Symbols["main"] {
			t.Fatalf("%s: entry not main", p.Name)
		}
	}
}

func runImage(t *testing.T, im *program.Image) (string, cpu.Stats) {
	t.Helper()
	cfg := cpu.DefaultConfig()
	cfg.MaxInstr = 100_000_000
	c, err := cpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	c.Out = &out
	if err := c.Load(im); err != nil {
		t.Fatal(err)
	}
	code, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	return out.String(), c.Stats
}

func TestScaledBenchmarkRunsToCompletion(t *testing.T) {
	p, _ := ByName("pegwit")
	im, err := Build(p.Scale(0.1))
	if err != nil {
		t.Fatal(err)
	}
	out, stats := runImage(t, im)
	if out == "" {
		t.Fatal("no checksum printed")
	}
	if stats.Instrs < 10_000 {
		t.Fatalf("suspiciously short run: %d instrs", stats.Instrs)
	}
}

func TestScaleChangesOnlyDynamicLength(t *testing.T) {
	p, _ := ByName("mpeg2enc")
	a, _ := Build(p.Scale(0.2))
	b, _ := Build(p)
	if !bytes.Equal(a.Segment(program.SegText).Data, b.Segment(program.SegText).Data) {
		// Iters appears as a literal in the driver, so one instruction's
		// immediate differs; everything else must match. Compare sizes.
		if len(a.Segment(program.SegText).Data) != len(b.Segment(program.SegText).Data) {
			t.Fatal("Scale must not change the code size")
		}
	}
}

// The headline end-to-end test: a synthetic benchmark produces the same
// checksum under native execution and under both software decompressors.
func TestCompressedBenchmarkChecksumMatches(t *testing.T) {
	p, _ := ByName("pegwit")
	im, err := Build(p.Scale(0.15))
	if err != nil {
		t.Fatal(err)
	}
	want, nat := runImage(t, im)
	for _, opts := range []core.Options{
		{Scheme: program.SchemeDict, ShadowRF: true},
		{Scheme: program.SchemeCodePack, ShadowRF: true},
	} {
		res, err := core.Compress(im, opts)
		if err != nil {
			t.Fatalf("%v: %v", opts, err)
		}
		got, st := runImage(t, res.Image)
		if got != want {
			t.Fatalf("%s: checksum %q, want %q", opts.Scheme, got, want)
		}
		if st.Instrs != nat.Instrs {
			t.Fatalf("%s: user instrs %d, want %d", opts.Scheme, st.Instrs, nat.Instrs)
		}
		if st.Exceptions == 0 {
			t.Fatalf("%s: decompressor never ran", opts.Scheme)
		}
	}
}

func TestGenWordNeverTouchesReservedRegs(t *testing.T) {
	// Generated instructions must not write the driver's registers.
	p, _ := ByName("cc1")
	im, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	_ = im
	reserved := map[int]bool{16: true, 17: true, 18: true, 19: true, 20: true,
		21: true, 22: true, 23: true, 26: true, 27: true, 28: true, 29: true, 31: true}
	for _, r := range wideRegs {
		if reserved[r] {
			t.Fatalf("register %d is reserved but in the generated set", r)
		}
	}
	for _, r := range narrowRegs {
		if reserved[r] {
			t.Fatalf("register %d is reserved but in the narrow set", r)
		}
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	good, _ := ByName("pegwit")
	bad := []func(*Profile){
		func(p *Profile) { p.TotalProcs = 1 },
		func(p *Profile) { p.HotProcs = 0 },
		func(p *Profile) { p.HotProcs = p.TotalProcs },
		func(p *Profile) { p.PhaseLen = 0 },
		func(p *Profile) { p.ColdEvery = 0 },
		func(p *Profile) { p.Iters = 0 },
		func(p *Profile) { p.ProcInstrsMax = p.ProcInstrsMin - 1 },
		func(p *Profile) { p.PoolSize = 0 },
		func(p *Profile) { p.CommonFraction = 1.5 },
	}
	for i, mutate := range bad {
		p := good
		mutate(&p)
		if _, err := Build(p); err == nil {
			t.Errorf("mutation %d: expected error", i)
		}
	}
}

func TestProfileCollectsCallEdges(t *testing.T) {
	p, _ := ByName("pegwit")
	im, err := Build(p.Scale(0.1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := cpu.DefaultConfig()
	cfg.MaxInstr = 100_000_000
	c, _ := cpu.New(cfg)
	rec := profile.NewRecorder(im)
	rec.Attach(c)
	c.Out = io.Discard
	if err := c.Load(im); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	prof := rec.Profile()
	if len(prof.Calls) == 0 {
		t.Fatal("no call edges recorded")
	}
	// All calls originate from the driver (leaf procedures).
	for k, v := range prof.Calls {
		if prof.Procs[k[0]].Name != "main" {
			t.Fatalf("unexpected caller %s", prof.Procs[k[0]].Name)
		}
		if v == 0 {
			t.Fatal("zero-weight edge stored")
		}
	}
}

func TestColdSweepTouchesAllProcedures(t *testing.T) {
	// With enough iterations, the cold pointer wraps the whole table, so
	// every procedure executes at least once.
	p, _ := ByName("pegwit")
	p.Iters = p.TotalProcs*p.ColdEvery/p.ColdCount + p.ColdEvery + 1
	im, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cpu.DefaultConfig()
	cfg.MaxInstr = 500_000_000
	c, _ := cpu.New(cfg)
	rec := profile.NewRecorder(im)
	rec.Attach(c)
	c.Out = io.Discard
	if err := c.Load(im); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for _, proc := range rec.Profile().Procs {
		if proc.Instrs == 0 {
			t.Fatalf("procedure %s never executed", proc.Name)
		}
	}
}
