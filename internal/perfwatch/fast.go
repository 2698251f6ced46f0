package perfwatch

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/fastpath"
)

// FastMetrics is the sampled/functional axis of a sample, collected
// when Runner.Fast is set. Every number is deterministic: the sampling
// schedule is systematic and both engines are deterministic. Entries
// written before the fast tier existed simply lack the stanza (`fast`
// is omitempty), so old trajectory rows stay bit-identical.
type FastMetrics struct {
	// SampledCPI is the fastpath.Sampled estimate with its 95% bounds.
	SampledCPI     float64 `json:"sampled_cpi"`
	SampledCPILow  float64 `json:"sampled_cpi_low"`
	SampledCPIHigh float64 `json:"sampled_cpi_high"`
	// SampledEstCycles is the estimated whole-run cycle count; the gate
	// compares it against the exact Sim.Cycles of the same sample.
	SampledEstCycles uint64 `json:"sampled_est_cycles"`
	// SampledDriftPct is the recorded estimate error vs the exact run,
	// in percent (CheckFast recomputes it live rather than trusting it).
	SampledDriftPct float64 `json:"sampled_drift_pct"`
	Windows         int     `json:"windows"`
	Bursts          int     `json:"bursts"`
	DetailedInstrs  uint64  `json:"detailed_instrs"`
	TotalInstrs     uint64  `json:"total_instrs"`

	// FunctInstrs counts the user + handler instructions of one purely
	// functional run, whose output is checked against the native run.
	FunctInstrs uint64 `json:"funct_instrs"`
}

// SampledDrift returns the live estimate error of the sampled axis vs
// the exact simulated cycles, in percent.
func (s Sample) SampledDrift() (float64, bool) {
	if s.Fast == nil || s.Sim.Cycles == 0 {
		return 0, false
	}
	return 100 * (float64(s.Fast.SampledEstCycles) - float64(s.Sim.Cycles)) / float64(s.Sim.Cycles), true
}

// measureFast fills the fast-tier axis for one workload: one sampled
// run, drift-checked against the exact axis, and one functional run.
func (r *Runner) measureFast(w Workload, opts core.Options, sim SimMetrics) (*FastMetrics, error) {
	res, err := r.suite.SampledRun(w.Bench, opts, w.CacheKB, fastpath.SampleConfig{})
	if err != nil {
		return nil, fmt.Errorf("perfwatch: %s: %v", w.Name, err)
	}
	fstats, err := r.suite.FunctionalRun(w.Bench, opts, w.CacheKB)
	if err != nil {
		return nil, fmt.Errorf("perfwatch: %s: %v", w.Name, err)
	}
	f := &FastMetrics{
		SampledCPI:       res.CPI,
		SampledCPILow:    res.CPILow,
		SampledCPIHigh:   res.CPIHigh,
		SampledEstCycles: res.EstCycles,
		Windows:          res.Windows,
		Bursts:           res.Bursts,
		DetailedInstrs:   res.DetailedInstrs,
		TotalInstrs:      res.TotalInstrs,
		FunctInstrs:      fstats.Instrs + fstats.HandlerInstrs,
	}
	if sim.Cycles > 0 {
		f.SampledDriftPct = 100 * (float64(res.EstCycles) - float64(sim.Cycles)) / float64(sim.Cycles)
	}
	return f, nil
}

// CheckFast gates the sampled axis of one entry: every sample must
// carry fast-tier metrics whose estimated cycles are within limitPct of
// the exact simulated cycles. Unlike GatePolicy.Check this needs no
// baseline — the exact axis of the same entry is the ground truth.
func CheckFast(e Entry, limitPct float64) []Violation {
	var vs []Violation
	for _, s := range e.Samples {
		drift, ok := s.SampledDrift()
		if !ok {
			vs = append(vs, Violation{Workload: s.Workload,
				Reason: "no sampled axis in entry (measure with `ccbench run -sampled` / `ccbench gate -sampled`)"})
			continue
		}
		if math.Abs(drift) > limitPct {
			vs = append(vs, Violation{Workload: s.Workload,
				Reason: fmt.Sprintf("sampled CPI drifted %+.3f%% from exact (est %d vs %d cycles, limit ±%.2f%%)",
					drift, s.Fast.SampledEstCycles, s.Sim.Cycles, limitPct)})
		}
	}
	return vs
}

// PerturbSampled multiplies every sampled cycle estimate in the entry
// by factor — the fast-tier analogue of PerturbSim, used by the gate's
// must-fail self-test (`ccbench gate -sampled -perturb-sampled 1.05`)
// to prove the drift gate actually fires. It mutates the entry in
// place.
func PerturbSampled(e *Entry, factor float64) {
	for i := range e.Samples {
		f := e.Samples[i].Fast
		if f == nil {
			continue
		}
		f.SampledEstCycles = uint64(float64(f.SampledEstCycles) * factor)
		f.SampledCPI *= factor
		f.SampledCPILow *= factor
		f.SampledCPIHigh *= factor
	}
}
