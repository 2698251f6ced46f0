package rtd_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	rtd "repro"
	"repro/internal/codec"
	"repro/internal/cpu"
	"repro/internal/fastpath"
	"repro/internal/program"
)

// This file is the functional-vs-detailed equivalence battery: every
// corpus program runs once on the detailed timing engine and once on
// the functional fast-forward engine, under every registered codec,
// and the final architectural state must be bit-identical — registers
// (the user bank, masking $k0/$k1, which the single-RF decompressor is
// architecturally allowed to clobber), HI/LO, the data segment, the
// user instruction count, and every functionally materialised code
// word against the golden decompressed text. Timing state is
// deliberately out of scope: the functional engine has none, and
// functional exception counts are a lower bound (fstore never evicts,
// the I-cache does).
//
// A deliberately broken functional handler (Config.FunctionalBreak)
// must be caught — the battery's negative control.

// functionalDivergences runs im on both engines and returns every
// architectural divergence found (empty = equivalent). A run error on
// either engine is returned as err.
func functionalDivergences(im *rtd.Image, cfg cpu.Config, breakFunctional bool) ([]string, error) {
	run := func(functional bool) (*cpu.CPU, string, int32, error) {
		c2 := cfg
		c2.FunctionalBreak = functional && breakFunctional
		c, err := cpu.New(c2)
		if err != nil {
			return nil, "", 0, err
		}
		var out bytes.Buffer
		c.Out = &out
		if err := c.Load(im); err != nil {
			return nil, "", 0, err
		}
		if functional {
			code, err := fastpath.Functional(c)
			return c, out.String(), code, err
		}
		code, err := c.Run()
		return c, out.String(), code, err
	}
	cd, outD, codeD, err := run(false)
	if err != nil {
		return nil, fmt.Errorf("detailed: %v", err)
	}
	cf, outF, codeF, err := run(true)
	if err != nil {
		return nil, fmt.Errorf("functional: %v", err)
	}

	var divs []string
	if outD != outF {
		divs = append(divs, fmt.Sprintf("output: detailed %q, functional %q", outD, outF))
	}
	if codeD != codeF {
		divs = append(divs, fmt.Sprintf("exit code: detailed %d, functional %d", codeD, codeF))
	}
	for r := 0; r < 32; r++ {
		if r == 26 || r == 27 { // $k0/$k1: reserved for the decompressor
			continue
		}
		if d, f := cd.UserReg(r), cf.UserReg(r); d != f {
			divs = append(divs, fmt.Sprintf("$%d: detailed %#x, functional %#x", r, d, f))
		}
	}
	hiD, loD := cd.HiLo()
	hiF, loF := cf.HiLo()
	if hiD != hiF || loD != loF {
		divs = append(divs, fmt.Sprintf("HI/LO: detailed %#x/%#x, functional %#x/%#x", hiD, loD, hiF, loF))
	}
	if cd.Stats.Instrs != cf.FStats.Instrs {
		divs = append(divs, fmt.Sprintf("user instructions: detailed %d, functional %d",
			cd.Stats.Instrs, cf.FStats.Instrs))
	}
	if seg := im.Segment(program.SegData); seg != nil {
		for i := range seg.Data {
			a := seg.Base + uint32(i)
			if d, f := cd.Mem.LoadByte(a), cf.Mem.LoadByte(a); d != f {
				divs = append(divs, fmt.Sprintf("data byte %#x: detailed %#x, functional %#x", a, d, f))
				break
			}
		}
	}
	// Every functionally materialised code word must be the golden
	// decompressed text — the functional mirror of diffsim's
	// swic-content oracle.
	if golden := im.Segment(program.SegText); golden != nil {
		fs := cf.FStoreSnapshot()
		addrs := make([]uint32, 0, len(fs))
		for a := range fs {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		for _, a := range addrs {
			if !golden.Contains(a) || !golden.Contains(a+3) {
				continue
			}
			if want := golden.Word(a); fs[a] != want {
				divs = append(divs, fmt.Sprintf("fstore %#x: %#x, golden %#x", a, fs[a], want))
			}
		}
	}
	return divs, nil
}

// batterySchemes is native plus every codec in the registry, so a
// newly registered codec is covered with no test change.
func batterySchemes() []rtd.Options {
	opts := []rtd.Options{{}}
	for _, name := range codec.Names() {
		opts = append(opts, rtd.Options{Scheme: rtd.Scheme(name)})
		opts = append(opts, rtd.Options{Scheme: rtd.Scheme(name), ShadowRF: true})
	}
	return opts
}

// TestFunctionalEquivalenceCorpus runs the whole assembly corpus under
// native and every registered codec (both register-file conventions)
// on both engines.
func TestFunctionalEquivalenceCorpus(t *testing.T) {
	paths, err := filepath.Glob("testdata/*.s")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus programs found: %v", err)
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".s")
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			im, err := rtd.Assemble(string(raw))
			if err != nil {
				t.Fatalf("assemble: %v", err)
			}
			for _, opts := range batterySchemes() {
				run := im
				if opts.Scheme != "" {
					res, err := rtd.Compress(im, opts)
					if err != nil {
						t.Fatalf("%s: compress: %v", opts.Scheme, err)
					}
					run = res.Image
				}
				machine := rtd.DefaultMachine()
				machine.MaxInstr = 100_000_000
				divs, err := functionalDivergences(run, machine, false)
				if err != nil {
					t.Fatalf("%s: %v", schemeLabel(opts), err)
				}
				for _, d := range divs {
					t.Errorf("%s: %s", schemeLabel(opts), d)
				}
			}
		})
	}
}

// TestFunctionalEquivalenceMiniC covers the compiled MiniC corpus.
func TestFunctionalEquivalenceMiniC(t *testing.T) {
	paths, err := filepath.Glob("testdata/minic/*.mc")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no MiniC corpus programs found: %v", err)
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".mc")
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			im, err := rtd.CompileMiniC(string(raw))
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			for _, opts := range []rtd.Options{
				{},
				{Scheme: rtd.SchemeDict, ShadowRF: true},
				{Scheme: rtd.SchemeCodePack},
			} {
				run := im
				if opts.Scheme != "" {
					res, err := rtd.Compress(im, opts)
					if err != nil {
						t.Fatal(err)
					}
					run = res.Image
				}
				machine := rtd.DefaultMachine()
				machine.MaxInstr = 50_000_000
				divs, err := functionalDivergences(run, machine, false)
				if err != nil {
					t.Fatalf("%s: %v", schemeLabel(opts), err)
				}
				for _, d := range divs {
					t.Errorf("%s: %s", schemeLabel(opts), d)
				}
			}
		})
	}
}

// TestFunctionalEquivalenceHardwareDecompress covers the
// hardware-decompression fill path on both engines.
func TestFunctionalEquivalenceHardwareDecompress(t *testing.T) {
	raw, err := os.ReadFile("testdata/sort.s")
	if err != nil {
		t.Fatal(err)
	}
	im, err := rtd.Assemble(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	res, err := rtd.Compress(im, rtd.Options{Scheme: rtd.SchemeDict})
	if err != nil {
		t.Fatal(err)
	}
	machine := rtd.DefaultMachine()
	machine.HardwareDecompress = true
	machine.HWDecompressCycles = 32
	machine.MaxInstr = 100_000_000
	divs, err := functionalDivergences(res.Image, machine, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range divs {
		t.Error(d)
	}
}

// TestFunctionalBreakIsCaught is the negative control: a deliberately
// corrupted functional handler (every swic flips one bit) must be
// detected, either as a run error or as an architectural divergence.
// If this test fails, the battery's comparison has no teeth.
func TestFunctionalBreakIsCaught(t *testing.T) {
	raw, err := os.ReadFile("testdata/sort.s")
	if err != nil {
		t.Fatal(err)
	}
	im, err := rtd.Assemble(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []rtd.Options{
		{Scheme: rtd.SchemeDict},
		{Scheme: rtd.SchemeDict, ShadowRF: true},
	} {
		res, err := rtd.Compress(im, opts)
		if err != nil {
			t.Fatal(err)
		}
		machine := rtd.DefaultMachine()
		// A corrupted stream may spin; bound it well below the battery's
		// normal budget.
		machine.MaxInstr = 10_000_000
		divs, err := functionalDivergences(res.Image, machine, true)
		if err == nil && len(divs) == 0 {
			t.Errorf("%s: broken functional handler not caught", schemeLabel(opts))
		}
	}
}
