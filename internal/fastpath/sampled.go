package fastpath

// SMARTS-style sampled simulation (Wunderlich et al., ISCA 2003,
// adapted): the run alternates short detailed measurement windows with
// long functional fast-forward intervals. Two properties tailor the
// scheme to decompression workloads, whose cost is concentrated in
// rare, individually expensive handler bursts that uniform sampling
// misses:
//
//  1. Functional warming (the interpreter's warm policy): the
//     fast-forward makes the detailed engine's cache and branch-predictor
//     state changes and charges nothing, so every measured window starts
//     from the precise timing state of a pure detailed run — no
//     cold-start bias and no warmup bleed.
//
//  2. Stratified burst accounting: every decompression event — the
//     exception entry, the whole handler activation, or the hardware
//     fill — executes on the detailed engine and is charged exactly,
//     even when it strikes during a fast-forward interval
//     (cpu.RunFunctionalSampled stops before the event and hands it to
//     cpu.RunDetailedBurst). Measured windows therefore estimate only
//     the steady-state user CPI, which is low-variance; the estimate is
//
//         cycles ≈ exact detailed cycles + steadyCPI × fast-forwarded instructions
//
//     so the rare-event stratum contributes no sampling error at all.
//
// The confidence interval comes from the spread of per-window steady
// CPI values under a t distribution, propagated through the estimator
// (the exact stratum has zero variance). Sampling is systematic and the
// engines are deterministic, so a sampled run is bit-reproducible: same
// program, same SampleConfig, same estimate.

import (
	"fmt"
	"math"

	"repro/internal/cpu"
)

// SampleConfig parameterises the sampled driver. All counts are user
// (non-handler) instructions; each period additionally extends to the
// next handler exit so an engine switch never splits a decompression.
type SampleConfig struct {
	// Window is the measured detailed period length.
	Window uint64
	// Interval is the functional fast-forward length between windows.
	Interval uint64
	// Warmup is the unmeasured detailed period before each window,
	// absorbing the cold caches and predictor the fast-forward left.
	Warmup uint64
}

// DefaultSampleConfig returns the tuned defaults: ~14% of user
// instructions run detailed, all of it measured — functional warming
// makes a separate warmup period redundant, so it defaults to zero.
// This holds sampled CPI within 1% of exact on the full ccbench
// registry (TestSampledRegistryAccuracy, and the ccbench sampled gate
// in CI, enforce the bound).
func DefaultSampleConfig() SampleConfig {
	return SampleConfig{Window: 500, Interval: 3000, Warmup: 0}
}

// normalize fills zero fields from the defaults.
func (cfg SampleConfig) normalize() SampleConfig {
	def := DefaultSampleConfig()
	if cfg.Window == 0 {
		cfg.Window = def.Window
	}
	if cfg.Interval == 0 {
		cfg.Interval = def.Interval
	}
	return cfg
}

// SampleResult reports a sampled run.
type SampleResult struct {
	ExitCode int32 `json:"exit_code"`

	Windows        int    `json:"windows"`         // measured windows (incl. a final partial one)
	MeasuredInstrs uint64 `json:"measured_instrs"` // user instructions inside measured windows
	MeasuredCycles uint64 `json:"measured_cycles"`

	// Measured accumulates the full cpu.Stats deltas of the measured
	// windows (the //cccheck:stats(sum) merge site guarantees every
	// counter is carried).
	Measured cpu.Stats `json:"measured"`

	// SteadyCPI is the sampled estimate of the steady-state user CPI:
	// the ratio estimator over measured-window cycles and instructions
	// with decompression bursts excluded from both numerator and
	// denominator.
	SteadyCPI    float64 `json:"steady_cpi"`
	SteadyInstrs uint64  `json:"steady_instrs"` // window instructions outside bursts
	SteadyCycles uint64  `json:"steady_cycles"` // window cycles outside bursts

	// ExactCycles is every cycle the detailed engine charged — measured
	// windows, warmups, and all decompression bursts, including those
	// struck during fast-forward intervals. This stratum carries no
	// sampling error.
	ExactCycles uint64 `json:"exact_cycles"`
	Bursts      int    `json:"bursts"` // decompression events serviced during fast-forward

	// CPI is the stratified estimate
	// (ExactCycles + SteadyCPI×FunctInstrs) / TotalInstrs, with the 95%
	// confidence bounds from the per-window steady-CPI spread propagated
	// through (the exact stratum contributes no variance).
	CPI        float64 `json:"cpi"`
	CPILow     float64 `json:"cpi_low"`
	CPIHigh    float64 `json:"cpi_high"`
	Confidence float64 `json:"confidence"`

	TotalInstrs    uint64 `json:"total_instrs"`    // user instructions, both engines
	DetailedInstrs uint64 `json:"detailed_instrs"` // user instructions run detailed (incl. warmup and bursts)
	FunctInstrs    uint64 `json:"funct_instrs"`    // user instructions fast-forwarded
	EstCycles      uint64 `json:"est_cycles"`      // CPI × TotalInstrs
}

// Sampled runs the loaded machine to completion under the sampling
// schedule and returns the CPI estimate. The machine must be freshly
// loaded (or checkpoint-restored); its Out/Prof/Trace attachments see
// only the detailed periods' events, so attach none for pure sampling.
func Sampled(c *cpu.CPU, cfg SampleConfig) (*SampleResult, error) {
	cfg = cfg.normalize()
	res := &SampleResult{Confidence: 0.95}
	var wcpi []float64
	halted := false
	for !halted {
		// Measured detailed window; bursts inside it are split out of the
		// steady measure (they still charge cpu.Stats exactly).
		pre := c.Stats
		var bc, bi uint64
		var err error
		halted, err = c.RunDetailedWindow(cfg.Window, &bc, &bi)
		if err != nil {
			return nil, err
		}
		d := statsDelta(pre, c.Stats)
		if d.Instrs > 0 {
			mergeStats(&res.Measured, d)
			res.Windows++
			if si := d.Instrs - bi; si > 0 {
				res.SteadyInstrs += si
				res.SteadyCycles += d.Cycles - bc
				wcpi = append(wcpi, float64(d.Cycles-bc)/float64(si))
			}
		}
		if halted {
			break
		}
		// Functional fast-forward under the warm policy: caches and
		// predictor evolve through the interval, so the next window starts
		// from the timing state a pure detailed run would have. I-cache
		// misses stop the fast-forward before any state changes and run
		// on the detailed engine, so the rare-event stratum is charged
		// exactly.
		left := cfg.Interval
		for !halted && left > 0 {
			preFunct := c.FStats.Instrs
			var pending bool
			halted, pending, err = c.RunFunctionalSampled(left)
			if err != nil {
				return nil, err
			}
			left -= min(left, c.FStats.Instrs-preFunct)
			if pending {
				res.Bursts++
				halted, err = c.RunDetailedBurst()
				if err != nil {
					return nil, err
				}
			}
		}
		if halted {
			break
		}
		// Unmeasured detailed warmup. With functional warming on, the
		// fast-forward leaves the exact detailed timing state, so the
		// default warmup is zero; a nonzero value remains available for
		// sensitivity studies.
		if cfg.Warmup > 0 {
			halted, err = c.RunDetailedFor(cfg.Warmup)
			if err != nil {
				return nil, err
			}
		}
	}
	// The detailed engine's cycle-attribution invariant must hold over
	// the union of all detailed periods.
	if err := c.Stats.CPIStack.Check(c.Stats.Cycles); err != nil {
		return nil, fmt.Errorf("fastpath: %v", err)
	}
	_, code := c.Halted()
	res.ExitCode = code
	res.MeasuredInstrs = res.Measured.Instrs
	res.MeasuredCycles = res.Measured.Cycles
	res.ExactCycles = c.Stats.Cycles
	res.DetailedInstrs = c.Stats.Instrs
	res.FunctInstrs = c.FStats.Instrs
	res.TotalInstrs = c.Stats.Instrs + c.FStats.Instrs
	if res.SteadyInstrs > 0 {
		res.SteadyCPI = float64(res.SteadyCycles) / float64(res.SteadyInstrs)
	}
	lo, hi := confidenceInterval(res.SteadyCPI, wcpi)
	if res.TotalInstrs > 0 {
		u := float64(res.TotalInstrs)
		fi := float64(res.FunctInstrs)
		exact := float64(res.ExactCycles)
		res.CPI = (exact + res.SteadyCPI*fi) / u
		res.CPILow = (exact + lo*fi) / u
		res.CPIHigh = (exact + hi*fi) / u
	}
	res.EstCycles = uint64(res.CPI*float64(res.TotalInstrs) + 0.5)
	return res, nil
}

// statsDelta returns the per-field difference b−a of two cumulative
// Stats snapshots (the measured window's contribution). ExcCyclesMax is
// a running maximum, not a sum: the delta carries the cumulative
// maximum as of the window end, and mergeStats max-merges it.
//
//cccheck:stats(sum)
func statsDelta(a, b cpu.Stats) cpu.Stats {
	var d cpu.Stats
	d.Cycles = b.Cycles - a.Cycles
	d.Instrs = b.Instrs - a.Instrs
	d.HandlerInstrs = b.HandlerInstrs - a.HandlerInstrs
	d.IMissNative = b.IMissNative - a.IMissNative
	d.IMissCompressed = b.IMissCompressed - a.IMissCompressed
	d.Exceptions = b.Exceptions - a.Exceptions
	d.LoadStalls = b.LoadStalls - a.LoadStalls
	d.FetchStalls = b.FetchStalls - a.FetchStalls
	d.LoadUseStalls = b.LoadUseStalls - a.LoadUseStalls
	d.ExcCyclesTotal = b.ExcCyclesTotal - a.ExcCyclesTotal
	d.ExcCyclesMax = b.ExcCyclesMax
	for i := range d.CPIStack {
		d.CPIStack[i] = b.CPIStack[i] - a.CPIStack[i]
	}
	return d
}

// mergeStats accumulates a window delta into the sampled run's measured
// totals. statscomplete proves both this and statsDelta touch every
// cpu.Stats field, so a newly added counter cannot silently escape the
// sampled axis.
//
//cccheck:stats(sum)
func mergeStats(acc *cpu.Stats, d cpu.Stats) {
	acc.Cycles += d.Cycles
	acc.Instrs += d.Instrs
	acc.HandlerInstrs += d.HandlerInstrs
	acc.IMissNative += d.IMissNative
	acc.IMissCompressed += d.IMissCompressed
	acc.Exceptions += d.Exceptions
	acc.LoadStalls += d.LoadStalls
	acc.FetchStalls += d.FetchStalls
	acc.LoadUseStalls += d.LoadUseStalls
	acc.ExcCyclesTotal += d.ExcCyclesTotal
	if d.ExcCyclesMax > acc.ExcCyclesMax {
		acc.ExcCyclesMax = d.ExcCyclesMax
	}
	for i := range acc.CPIStack {
		acc.CPIStack[i] += d.CPIStack[i]
	}
}

// tTable holds two-sided 95% t critical values for 1..30 degrees of
// freedom; beyond 30 the normal approximation (1.96) is used.
var tTable = [31]float64{0,
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

func tCritical(df int) float64 {
	if df < 1 {
		return 0
	}
	if df <= 30 {
		return tTable[df]
	}
	return 1.96
}

// confidenceInterval bounds the CPI point estimate using the spread of
// per-window CPI values: point ± t(n−1)·s/√n. With fewer than two
// windows the interval collapses to the point.
func confidenceInterval(point float64, wcpi []float64) (lo, hi float64) {
	n := len(wcpi)
	if n < 2 {
		return point, point
	}
	var mean float64
	for _, v := range wcpi {
		mean += v
	}
	mean /= float64(n)
	var ss float64
	for _, v := range wcpi {
		ss += (v - mean) * (v - mean)
	}
	sd := math.Sqrt(ss / float64(n-1))
	hw := tCritical(n-1) * sd / math.Sqrt(float64(n))
	return point - hw, point + hw
}
