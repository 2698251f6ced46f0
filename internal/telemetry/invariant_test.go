package telemetry_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/minic"
	"repro/internal/profile"
	"repro/internal/program"
	"repro/internal/selective"
	"repro/internal/synth"
)

// The CPI-stack invariant: every simulated cycle is attributed to
// exactly one component, so the components always sum to Stats.Cycles.
// cpu.Run enforces this at exit; these tests sweep it across every
// example program and a seeded batch of random programs, under the
// native machine and each decompressor configuration.

// invariantConfigs are the compression variants each program runs under.
// "selective" compresses all but the procedures a profiled run ranks
// hottest by misses.
var invariantConfigs = []string{"native", "dict", "codepack", "selective"}

func runInvariant(t *testing.T, name string, im *program.Image) {
	t.Helper()
	for _, cfg := range invariantConfigs {
		run := im
		if cfg != "native" {
			opts := core.Options{Scheme: program.Scheme("dict")}
			switch cfg {
			case "codepack":
				opts.Scheme = program.SchemeCodePack
			case "selective":
				prof := profiledNative(t, im)
				opts.NativeProcs = selective.Select(prof, selective.ByMisses, 0.3)
				if len(opts.NativeProcs) == len(im.Procs) {
					// Single-hot-procedure program: nothing left to
					// compress, so the variant degenerates to native.
					continue
				}
			}
			res, err := core.Compress(im, opts)
			if err != nil {
				t.Fatalf("%s/%s: compress: %v", name, cfg, err)
			}
			run = res.Image
		}
		s := execute(t, fmt.Sprintf("%s/%s", name, cfg), run)
		if got := s.CPIStack.Total(); got != s.Cycles {
			t.Errorf("%s/%s: stack sums to %d, cycles %d (stack %v)",
				name, cfg, got, s.Cycles, s.CPIStack)
		}
		if err := s.CPIStack.Check(s.Cycles); err != nil {
			t.Errorf("%s/%s: %v", name, cfg, err)
		}
		if cfg != "native" && s.Exceptions > 0 && s.CPIStack[cpu.CycleExcService] == 0 {
			t.Errorf("%s/%s: %d exceptions but no exception-service cycles", name, cfg, s.Exceptions)
		}
	}
}

func execute(t *testing.T, name string, im *program.Image) cpu.Stats {
	t.Helper()
	c, err := cpu.New(cpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c.Cfg.MaxInstr = 20_000_000
	if err := c.Load(im); err != nil {
		t.Fatalf("%s: load: %v", name, err)
	}
	if _, err := c.Run(); err != nil {
		// Run itself rejects a broken decomposition, so a failure here is
		// already an invariant (or simulation) violation.
		t.Fatalf("%s: run: %v", name, err)
	}
	return c.Stats
}

func profiledNative(t *testing.T, im *program.Image) *profile.Profile {
	t.Helper()
	cfg := cpu.DefaultConfig()
	cfg.MaxInstr = 20_000_000
	prof, _, err := selective.Profile(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

// TestCPIStackInvariantExamples sweeps every example program in
// testdata: hand-written assembly and compiled MiniC.
func TestCPIStackInvariantExamples(t *testing.T) {
	root := filepath.Join("..", "..", "testdata")
	asmFiles, err := filepath.Glob(filepath.Join(root, "*.s"))
	if err != nil || len(asmFiles) == 0 {
		t.Fatalf("no assembly examples found: %v", err)
	}
	mcFiles, err := filepath.Glob(filepath.Join(root, "minic", "*.mc"))
	if err != nil || len(mcFiles) == 0 {
		t.Fatalf("no MiniC examples found: %v", err)
	}
	for _, path := range append(asmFiles, mcFiles...) {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var im *program.Image
			if strings.HasSuffix(path, ".mc") {
				im, err = minic.Compile(string(src))
			} else {
				im, err = asm.Assemble(string(src))
			}
			if err != nil {
				t.Fatal(err)
			}
			runInvariant(t, filepath.Base(path), im)
		})
	}
}

// TestCPIStackInvariantSynthetic sweeps the synthetic benchmark
// generator at test scale.
func TestCPIStackInvariantSynthetic(t *testing.T) {
	for _, name := range []string{"pegwit", "go"} {
		p, ok := synth.ByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %q", name)
		}
		im, err := synth.Build(p.Scale(0.05))
		if err != nil {
			t.Fatal(err)
		}
		runInvariant(t, name, im)
	}
}

// TestCPIStackInvariantRandom sweeps a seeded batch of generated random
// programs — the same generator the differential fuzzer drives, so any
// attribution hole it can reach, this sweep can too.
func TestCPIStackInvariantRandom(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rp := synth.GenerateRandom(synth.DefaultRandSpec(seed))
		im, err := rp.Build()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		runInvariant(t, fmt.Sprintf("rand-%d", seed), im)
	}
}
