// Package perfwatch is the repository's performance-trajectory layer:
// a registry of named, versioned benchmark workloads (paper benchmarks ×
// compression schemes × cache configurations), a runner that measures
// each workload's simulated metrics, and schema-versioned
// BENCH_<host>.json trajectory files that accumulate one sample set per
// run. `ccbench compare` and `ccbench gate` turn the trajectory into a
// regression gate: simulated cycles are deterministic, so they are
// compared exactly and any delta is a behaviour change. Host time is
// measured by the repository benchmark (bench/run.sh), not here.
package perfwatch

import (
	"fmt"
	"io"
	"log/slog"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/parallel"
	"repro/internal/program"
	"repro/internal/selective"
)

// Workload is one registered benchmark configuration. Name is the
// stable identifier trajectory samples are joined on across runs;
// Version marks semantic changes to the workload definition — when a
// workload's meaning changes (different scheme options, different cache)
// bump Version instead of silently redefining it, and comparisons
// across versions are skipped rather than reported as regressions.
type Workload struct {
	Name    string `json:"name"`
	Version int    `json:"version"`

	// Bench names the synthetic benchmark (synth.Benchmarks).
	Bench string `json:"bench"`
	// Scheme is the compression scheme; empty means native code.
	Scheme program.Scheme `json:"scheme,omitempty"`
	// ShadowRF gives the handler the paper's second register file.
	ShadowRF bool `json:"shadow_rf,omitempty"`
	// SelectFrac > 0 keeps the hottest procedures (by the paper's miss
	// policy, profiled at the 16KB baseline) native — selective
	// compression at that coverage fraction.
	SelectFrac float64 `json:"select_frac,omitempty"`
	// CacheKB is the I-cache size in KB.
	CacheKB int `json:"cache_kb"`
}

// Desc returns a one-line human description of the workload.
func (w Workload) Desc() string {
	scheme := "native"
	if w.Scheme != "" {
		scheme = string(w.Scheme)
		if w.ShadowRF {
			scheme += "+rf"
		}
	}
	if w.SelectFrac > 0 {
		scheme = fmt.Sprintf("selective(%s, %.0f%% native by misses)", scheme, w.SelectFrac*100)
	}
	return fmt.Sprintf("%s, %s, %dKB I-cache", w.Bench, scheme, w.CacheKB)
}

// Registry returns the default workload set: a cross-section of the
// paper's evaluation space chosen so every future perf PR exercises the
// native simulator hot path, both software decompressors, the shadow
// register file, selective compression, procedure-granularity
// decompression, and the small/large cache extremes. Order is the
// execution and reporting order; names never change meaning without a
// Version bump.
func Registry() []Workload {
	return []Workload{
		{Name: "go/native/16K", Version: 1, Bench: "go", CacheKB: 16},
		{Name: "go/dict/16K", Version: 1, Bench: "go", Scheme: program.SchemeDict, CacheKB: 16},
		{Name: "go/dict+rf/16K", Version: 1, Bench: "go", Scheme: program.SchemeDict, ShadowRF: true, CacheKB: 16},
		{Name: "go/codepack+rf/16K", Version: 1, Bench: "go", Scheme: program.SchemeCodePack, ShadowRF: true, CacheKB: 16},
		{Name: "go/sel-dict-25/16K", Version: 1, Bench: "go", Scheme: program.SchemeDict, ShadowRF: true, SelectFrac: 0.25, CacheKB: 16},
		{Name: "cc1/codepack+rf/16K", Version: 1, Bench: "cc1", Scheme: program.SchemeCodePack, ShadowRF: true, CacheKB: 16},
		{Name: "pegwit/dict+rf/4K", Version: 1, Bench: "pegwit", Scheme: program.SchemeDict, ShadowRF: true, CacheKB: 4},
		{Name: "perl/dict+rf/64K", Version: 1, Bench: "perl", Scheme: program.SchemeDict, ShadowRF: true, CacheKB: 64},
		{Name: "mpeg2enc/procdict/16K", Version: 1, Bench: "mpeg2enc", Scheme: program.SchemeProcDict, CacheKB: 16},
		{Name: "vortex/native/16K", Version: 1, Bench: "vortex", CacheKB: 16},
		{Name: "go/lz/16K", Version: 1, Bench: "go", Scheme: program.Scheme("lz"), CacheKB: 16},
		{Name: "pegwit/lz+rf/4K", Version: 1, Bench: "pegwit", Scheme: program.Scheme("lz"), ShadowRF: true, CacheKB: 4},
	}
}

// Find returns the registered workload with the given name.
func Find(name string) (Workload, bool) {
	for _, w := range Registry() {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Runner executes workloads and produces Samples. It wraps an
// experiment.Suite so image building, compression and native baselines
// are shared across workloads; the measured simulations themselves
// always run fresh.
type Runner struct {
	// Scale is the dynamic-length multiplier applied to every benchmark
	// (the RTD_BENCH_SCALE axis; 1.0 = the calibrated full runs).
	Scale float64
	// Log receives per-workload progress; nil discards it.
	Log *slog.Logger
	// Progress, when non-nil, is called after each completed workload
	// with (done, total). With Workers > 1 it is still invoked in
	// registry order.
	Progress func(done, total int, last Sample)
	// Workers fans the workloads across that many goroutines (<= 0 or 1
	// runs serially). Samples keep registry order and simulated metrics
	// are bit-identical for any worker count.
	Workers int
	// Fast additionally measures the fast tier per workload: one sampled
	// run, whose drift vs the exact axis feeds the ccbench sampled gate,
	// and one functional run, checked against the native output.
	Fast bool

	suite *experiment.Suite
}

// NewRunner returns a Runner at the given scale.
func NewRunner(scale float64) *Runner {
	return &Runner{Scale: scale, suite: experiment.NewSuite(scale)}
}

func (r *Runner) logger() *slog.Logger {
	if r.Log != nil {
		return r.Log
	}
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// options builds the compression options for a workload (resolving the
// selective-compression procedure set from the cached profile).
func (r *Runner) options(w Workload) (core.Options, error) {
	opts := core.Options{Scheme: w.Scheme, ShadowRF: w.ShadowRF}
	if w.SelectFrac > 0 {
		sel, err := r.suite.SelectNative(w.Bench, selective.ByMisses, w.SelectFrac)
		if err != nil {
			return core.Options{}, err
		}
		opts.NativeProcs = sel
	}
	return opts, nil
}

// RunWorkload measures one workload: two fresh, independent
// simulations, a plain one and one under the per-procedure profile
// recorder, whose simulated metrics must be bit-identical. The
// simulator is deterministic and the recorder a pure observer, so any
// divergence is a simulator bug and fails the run — every trajectory
// run is a standing proof of both properties on every registry
// workload.
func (r *Runner) RunWorkload(w Workload) (Sample, error) {
	opts, err := r.options(w)
	if err != nil {
		return Sample{}, fmt.Errorf("perfwatch: %s: %v", w.Name, err)
	}
	stats, err := r.suite.MeasureRun(w.Bench, opts, w.CacheKB)
	if err != nil {
		return Sample{}, fmt.Errorf("perfwatch: %s: %v", w.Name, err)
	}
	sample := Sample{Workload: w.Name, Version: w.Version, Sim: NewSimMetrics(stats)}
	prof, err := r.suite.AttributedRun(w.Bench, opts, w.CacheKB)
	if err != nil {
		return Sample{}, fmt.Errorf("perfwatch: %s profiled run: %v", w.Name, err)
	}
	if diffs := sample.Sim.Diff(simFromCost(prof.Total)); len(diffs) != 0 {
		return Sample{}, fmt.Errorf("perfwatch: %s: profiled run diverged from the plain run (simulator nondeterminism, or a profile recorder that is not a pure observer): %v",
			w.Name, diffs)
	}
	sample.Procs = prof.NamedCosts()
	r.logger().Info("measured", "workload", w.Name, "cycles", sample.Sim.Cycles, "instrs", sample.Sim.Instrs)

	if r.Fast {
		fast, err := r.measureFast(w, opts, sample.Sim)
		if err != nil {
			return Sample{}, err
		}
		sample.Fast = fast
		r.logger().Info("fast", "workload", w.Name,
			"sampled_cpi", fmt.Sprintf("%.4f", fast.SampledCPI),
			"drift_pct", fmt.Sprintf("%+.3f", fast.SampledDriftPct))
	}
	return sample, nil
}

// Run measures every workload in order and returns one trajectory entry
// stamped with the fingerprint. Workloads may be restricted to the
// named subset (nil = all).
func (r *Runner) Run(fp Fingerprint, only []string) (Entry, error) {
	log := r.logger()
	workloads := Registry()
	if len(only) > 0 {
		var filtered []Workload
		for _, name := range only {
			w, ok := Find(name)
			if !ok {
				return Entry{}, fmt.Errorf("perfwatch: unknown workload %q", name)
			}
			filtered = append(filtered, w)
		}
		workloads = filtered
	}
	//cccheck:allow(det) trajectory metadata: entries are stamped with host wall time, never compared bit-for-bit
	entry := Entry{Time: time.Now().UTC().Format(time.RFC3339), Fingerprint: fp}
	total := len(workloads)
	err := parallel.ForEachOrdered(r.Workers, total,
		func(i int) (Sample, error) {
			w := workloads[i]
			log.Info("workload", "name", w.Name, "desc", w.Desc(), "n", i+1, "of", total)
			return r.RunWorkload(w)
		},
		func(i int, s Sample, err error) error {
			if err != nil {
				return err
			}
			entry.Samples = append(entry.Samples, s)
			if r.Progress != nil {
				r.Progress(i+1, total, s)
			}
			return nil
		})
	if err != nil {
		return Entry{}, err
	}
	return entry, nil
}
