package fastpath_test

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fastpath"
	"repro/internal/perfwatch"
	"repro/internal/program"
	"repro/internal/selective"
	"repro/internal/synth"
)

// This file is the sampled-simulation accuracy battery:
//
//   - TestWarmFidelity proves functional warming is bit-faithful — a
//     whole program warmed between detailed bursts leaves the I-cache,
//     D-cache, and branch predictor in exactly the state a detailed run
//     leaves, with identical miss/eviction statistics and exception
//     counts.
//     This is the property that lets measured windows start without
//     cold-start bias.
//   - TestSampledRegistryAccuracy holds sampled CPI within 1% of exact
//     on every ccbench registry workload under the default
//     SampleConfig (the same bound the ccbench sampled gate enforces
//     in CI).
//   - TestSampledDeterminism and TestSampledHugeWindowIsExact pin the
//     estimator's two structural guarantees: bit-reproducibility, and
//     exactness in the limit where everything runs detailed.

// buildRegistryImage reconstructs a perfwatch registry workload's
// compressed image at the given synth scale, including the selective
// compression profiling pass when the workload calls for it.
func buildRegistryImage(t *testing.T, w perfwatch.Workload, scale float64) *program.Image {
	t.Helper()
	p, ok := synth.ByName(w.Bench)
	if !ok {
		t.Fatalf("%s: unknown benchmark %q", w.Name, w.Bench)
	}
	im, err := synth.Build(p.Scale(scale))
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	opts := core.Options{Scheme: w.Scheme, ShadowRF: w.ShadowRF}
	if w.SelectFrac > 0 {
		cfg := cpu.DefaultConfig()
		cfg.ICache.SizeBytes = 16 * 1024
		cfg.MaxInstr = 2_000_000_000
		prof, _, err := selective.Profile(im, cfg)
		if err != nil {
			t.Fatal(err)
		}
		opts.NativeProcs = selective.Select(prof, selective.ByMisses, w.SelectFrac)
	}
	if opts.Scheme == "" {
		return im
	}
	res, err := core.Compress(im, opts)
	if err != nil {
		t.Fatalf("%s: compress: %v", w.Name, err)
	}
	return res.Image
}

// newRegistryMachine builds a fresh loaded machine for a registry
// workload's cache size.
func newRegistryMachine(t *testing.T, im *program.Image, cacheKB int) *cpu.CPU {
	t.Helper()
	cfg := cpu.DefaultConfig()
	cfg.ICache.SizeBytes = cacheKB * 1024
	cfg.MaxInstr = 2_000_000_000
	c, err := cpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	c.Out = &out
	if err := c.Load(im); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestWarmFidelity runs three registry workloads — chosen to cover the
// LZ scheme's expensive handler, the dictionary scheme under eviction
// churn, and the procedure-dictionary scheme — to completion on the
// detailed engine and, the way fastpath.Sampled drives its intervals,
// under the warm policy until a miss is due, then one detailed burst,
// and so on. It requires the final timing state to be bit-identical:
// same cache contents, same cache statistics (misses, evictions, swic
// fills), same predictor table, same exception count. Exceptions and
// user instructions on the warm machine are summed over its detailed
// (Stats) and untimed (FStats) work.
func TestWarmFidelity(t *testing.T) {
	for _, tc := range []struct {
		bench  string
		scheme program.Scheme
		rf     bool
		kb     int
	}{
		{"pegwit", "lz", true, 4},
		{"go", "dict", false, 16},
		{"mpeg2enc", "procdict", false, 16},
	} {
		p, ok := synth.ByName(tc.bench)
		if !ok {
			t.Fatalf("unknown benchmark %q", tc.bench)
		}
		im, err := synth.Build(p.Scale(0.1))
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Compress(im, core.Options{Scheme: tc.scheme, ShadowRF: tc.rf})
		if err != nil {
			t.Fatal(err)
		}
		d := newRegistryMachine(t, res.Image, tc.kb)
		if _, err := d.Run(); err != nil {
			t.Fatal(err)
		}
		f := newRegistryMachine(t, res.Image, tc.kb)
		for halted := false; !halted; {
			var pending bool
			if halted, pending, err = f.RunFunctionalSampled(math.MaxUint64); err != nil {
				t.Fatal(err)
			}
			if pending {
				if halted, err = f.RunDetailedBurst(); err != nil {
					t.Fatal(err)
				}
			}
		}
		name := tc.bench + "/" + string(tc.scheme)
		if fe := f.Stats.Exceptions + f.FStats.Exceptions; d.Stats.Exceptions != fe {
			t.Errorf("%s: exceptions detailed %d, warm-functional %d",
				name, d.Stats.Exceptions, fe)
		}
		if fi := f.Stats.Instrs + f.FStats.Instrs; d.Stats.Instrs != fi {
			t.Errorf("%s: user instrs detailed %d, warm-functional %d",
				name, d.Stats.Instrs, fi)
		}
		ds, fs := d.IC.Snapshot(), f.IC.Snapshot()
		if !reflect.DeepEqual(ds.Sets, fs.Sets) {
			t.Errorf("%s: I-cache content diverges", name)
		}
		if ds.Stats != fs.Stats {
			t.Errorf("%s: I-cache stats detailed %+v, warm-functional %+v",
				name, ds.Stats, fs.Stats)
		}
		dd, fd := d.DC.Snapshot(), f.DC.Snapshot()
		if !reflect.DeepEqual(dd.Sets, fd.Sets) {
			t.Errorf("%s: D-cache content diverges", name)
		}
		if dd.Stats != fd.Stats {
			t.Errorf("%s: D-cache stats detailed %+v, warm-functional %+v",
				name, dd.Stats, fd.Stats)
		}
		db, fb := d.BP.Snapshot(), f.BP.Snapshot()
		if !reflect.DeepEqual(db.Table, fb.Table) {
			t.Errorf("%s: branch-predictor table diverges", name)
		}
	}
}

// TestSampledRegistryAccuracy is the accuracy battery the ISSUE's
// acceptance bound names: on every ccbench registry workload, sampled
// CPI under the default SampleConfig must sit within 1% of the exact
// detailed CPI. The ccbench sampled gate enforces the same bound in CI
// at the benchmark scale; this test pins it at a smaller scale where
// the rare-event structure is even harsher (fewer, relatively more
// expensive decompression bursts).
func TestSampledRegistryAccuracy(t *testing.T) {
	const scale = 0.1
	for _, w := range perfwatch.Registry() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			im := buildRegistryImage(t, w, scale)
			ex := newRegistryMachine(t, im, w.CacheKB)
			if _, err := ex.Run(); err != nil {
				t.Fatal(err)
			}
			exact := float64(ex.Stats.Cycles) / float64(ex.Stats.Instrs)

			c := newRegistryMachine(t, im, w.CacheKB)
			res, err := fastpath.Sampled(c, fastpath.DefaultSampleConfig())
			if err != nil {
				t.Fatal(err)
			}
			if res.TotalInstrs != ex.Stats.Instrs {
				t.Fatalf("user instrs: sampled %d, exact %d", res.TotalInstrs, ex.Stats.Instrs)
			}
			drift := 100 * math.Abs(res.CPI-exact) / exact
			t.Logf("exact %.4f sampled %.4f [%.4f,%.4f] drift %.2f%% (windows %d, bursts %d, detailed %.1f%%)",
				exact, res.CPI, res.CPILow, res.CPIHigh, drift,
				res.Windows, res.Bursts,
				100*float64(res.DetailedInstrs)/float64(res.TotalInstrs))
			if drift > 1.0 {
				t.Errorf("sampled CPI %.4f drifts %.2f%% from exact %.4f (bound 1%%)",
					res.CPI, drift, exact)
			}
			if res.CPILow > res.CPI || res.CPI > res.CPIHigh {
				t.Errorf("confidence interval [%.4f, %.4f] does not contain the point %.4f",
					res.CPILow, res.CPIHigh, res.CPI)
			}
		})
	}
}

// TestSampledDeterminism: the engines are deterministic and the
// sampling schedule is systematic, so two sampled runs of the same
// image under the same config must agree bit-for-bit — the whole
// result struct, not just the point estimate.
func TestSampledDeterminism(t *testing.T) {
	w := perfwatch.Registry()[1] // go/dict: exercises windows, bursts, and fast-forward
	im := buildRegistryImage(t, w, 0.1)
	run := func() *fastpath.SampleResult {
		c := newRegistryMachine(t, im, w.CacheKB)
		res, err := fastpath.Sampled(c, fastpath.DefaultSampleConfig())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two identical sampled runs diverge:\n  %+v\n  %+v", a, b)
	}
}

// TestSampledHugeWindowIsExact: with a window longer than the program,
// everything runs detailed, nothing is extrapolated, and the estimate
// must collapse to the exact CPI — not approximately, exactly.
func TestSampledHugeWindowIsExact(t *testing.T) {
	w := perfwatch.Registry()[1] // go/dict
	im := buildRegistryImage(t, w, 0.1)
	ex := newRegistryMachine(t, im, w.CacheKB)
	if _, err := ex.Run(); err != nil {
		t.Fatal(err)
	}
	c := newRegistryMachine(t, im, w.CacheKB)
	res, err := fastpath.Sampled(c, fastpath.SampleConfig{Window: 1 << 40, Interval: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.FunctInstrs != 0 {
		t.Fatalf("huge window still fast-forwarded %d instrs", res.FunctInstrs)
	}
	if res.Windows != 1 {
		t.Errorf("expected a single window, got %d", res.Windows)
	}
	if res.ExactCycles != ex.Stats.Cycles || res.TotalInstrs != ex.Stats.Instrs {
		t.Fatalf("detailed totals diverge: sampled %d cycles/%d instrs, exact %d/%d",
			res.ExactCycles, res.TotalInstrs, ex.Stats.Cycles, ex.Stats.Instrs)
	}
	exact := float64(ex.Stats.Cycles) / float64(ex.Stats.Instrs)
	if res.CPI != exact {
		t.Errorf("CPI %v != exact %v", res.CPI, exact)
	}
	if res.EstCycles != ex.Stats.Cycles {
		t.Errorf("EstCycles %d != exact cycles %d", res.EstCycles, ex.Stats.Cycles)
	}
}
