package perfwatch

import (
	"fmt"
)

// GatePolicy decides which comparison outcomes fail the regression gate.
type GatePolicy struct {
	// AllowSimChange permits simulated-metric changes (for PRs that
	// intentionally change timing behaviour; the trajectory still
	// records the new values). Default false: ANY simulated-cycle or
	// CPI-component change fails — simulated metrics are deterministic,
	// so a delta is always a real behaviour change that must be either
	// claimed (re-baseline) or fixed.
	AllowSimChange bool
}

// Violation is one gate failure.
type Violation struct {
	Workload string `json:"workload"`
	Reason   string `json:"reason"`
}

// Check applies the policy to a comparison and returns every violation
// (empty = gate passes).
func (p GatePolicy) Check(c Comparison) []Violation {
	if p.AllowSimChange {
		return nil
	}
	var vs []Violation
	for _, d := range c.Deltas {
		switch d.Status {
		case StatusSlower, StatusFaster, StatusChanged:
			reason := fmt.Sprintf("simulated metrics changed (%s): cycles %d -> %d (%+.3f%%)",
				d.Status, d.OldCycles, d.NewCycles, d.CycleDelta*100)
			if len(d.SimDiffs) > 0 {
				reason += "; first diff: " + d.SimDiffs[0]
			}
			if d.ProcRegressions != "" {
				reason += "; top regressing procedures: " + d.ProcRegressions
			}
			vs = append(vs, Violation{Workload: d.Workload, Reason: reason})
		}
	}
	return vs
}

// PerturbSim multiplies every simulated cycle count (total and CPI
// components) in the entry by factor — a synthetic regression injector
// used by the gate's self-test path (`ccbench gate -perturb 1.05`) to
// prove the gate actually fires. It mutates the entry in place.
func PerturbSim(e *Entry, factor float64) {
	scale := func(v uint64) uint64 { return uint64(float64(v) * factor) }
	for i := range e.Samples {
		sim := &e.Samples[i].Sim
		sim.Cycles = scale(sim.Cycles)
		for k, v := range sim.CPIStack {
			sim.CPIStack[k] = scale(v)
		}
		// Keep the spatial axis consistent with the perturbed totals so
		// the gate's "top regressing procedures" clause fires in the
		// self-test path too.
		for j := range e.Samples[i].Procs {
			p := &e.Samples[i].Procs[j]
			p.Cycles = scale(p.Cycles)
			p.DecompCycles = scale(p.DecompCycles)
		}
	}
}
