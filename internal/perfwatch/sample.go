package perfwatch

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/cpu"
	"repro/internal/profile"
)

// SimMetrics are the deterministic axis of a sample: everything here is
// a pure function of the workload definition and the simulator code, so
// across two trees any difference is a real behaviour change and is
// reported exactly, not statistically. Counters are kept as integers —
// derived ratios are computed at report time so comparison never goes
// through floating point.
type SimMetrics struct {
	Cycles        uint64 `json:"cycles"`
	Instrs        uint64 `json:"instrs"`
	HandlerInstrs uint64 `json:"handler_instrs"`

	Exceptions      uint64 `json:"exceptions"`
	IMissNative     uint64 `json:"imiss_native"`
	IMissCompressed uint64 `json:"imiss_compressed"`
	ExcCyclesMax    uint64 `json:"exc_cycles_max"`

	FetchStalls   uint64 `json:"fetch_stalls"`
	LoadStalls    uint64 `json:"load_stalls"`
	LoadUseStalls uint64 `json:"load_use_stalls"`

	// CPIStack maps cpu.CycleKind.Key() to attributed cycles; the values
	// sum exactly to Cycles (the simulator enforces this invariant).
	CPIStack map[string]uint64 `json:"cpi_stack"`
}

// NewSimMetrics digests cpu.Stats into the sample form.
func NewSimMetrics(s cpu.Stats) SimMetrics {
	m := SimMetrics{
		Cycles:          s.Cycles,
		Instrs:          s.Instrs,
		HandlerInstrs:   s.HandlerInstrs,
		Exceptions:      s.Exceptions,
		IMissNative:     s.IMissNative,
		IMissCompressed: s.IMissCompressed,
		ExcCyclesMax:    s.ExcCyclesMax,
		FetchStalls:     s.FetchStalls,
		LoadStalls:      s.LoadStalls,
		LoadUseStalls:   s.LoadUseStalls,
		CPIStack:        make(map[string]uint64, cpu.NumCycleKinds),
	}
	for k := cpu.CycleKind(0); k < cpu.NumCycleKinds; k++ {
		m.CPIStack[k.Key()] = s.CPIStack[k]
	}
	return m
}

// Diff returns a human-readable line per field that differs between the
// two metric sets (empty = exactly equal). Field order is stable.
func (m SimMetrics) Diff(o SimMetrics) []string {
	var diffs []string
	cmp := func(name string, a, b uint64) {
		if a != b {
			diffs = append(diffs, fmt.Sprintf("%s: %d -> %d (%+d)", name, a, b, int64(b)-int64(a)))
		}
	}
	cmp("cycles", m.Cycles, o.Cycles)
	cmp("instrs", m.Instrs, o.Instrs)
	cmp("handler_instrs", m.HandlerInstrs, o.HandlerInstrs)
	cmp("exceptions", m.Exceptions, o.Exceptions)
	cmp("imiss_native", m.IMissNative, o.IMissNative)
	cmp("imiss_compressed", m.IMissCompressed, o.IMissCompressed)
	cmp("exc_cycles_max", m.ExcCyclesMax, o.ExcCyclesMax)
	cmp("fetch_stalls", m.FetchStalls, o.FetchStalls)
	cmp("load_stalls", m.LoadStalls, o.LoadStalls)
	cmp("load_use_stalls", m.LoadUseStalls, o.LoadUseStalls)
	for k := cpu.CycleKind(0); k < cpu.NumCycleKinds; k++ {
		cmp("cpi_stack."+k.Key(), m.CPIStack[k.Key()], o.CPIStack[k.Key()])
	}
	return diffs
}

// Sample is one workload's measurement on the simulated axis.
type Sample struct {
	Workload string     `json:"workload"`
	Version  int        `json:"version"`
	Sim      SimMetrics `json:"sim"`

	// Procs is the spatial axis: per-procedure attributed cost from the
	// profiled run (nonzero procedures in address order,
	// profile.NamedCosts form). The gate uses it to *name* the top
	// regressing procedures when simulated metrics change. Empty in
	// entries written before the attribution layer existed — comparisons
	// then simply omit the clause.
	Procs []profile.NamedCost `json:"procs,omitempty"`

	// Fast is the fast-tier axis (sampled CPI estimate + functional
	// instruction count), collected when Runner.Fast is set. Nil in entries measured
	// without it — omitted from JSON so older rows stay bit-identical.
	Fast *FastMetrics `json:"fast,omitempty"`
}

// simFromCost rebuilds SimMetrics from a profile's whole-run total.
// The attribution layer carries the complete cpu.Stats decomposition,
// so the reconstruction is lossless — RunWorkload uses it to assert
// that the profiled observer run reproduced the plain run's simulated
// metrics exactly.
func simFromCost(c profile.Cost) SimMetrics {
	m := SimMetrics{
		Cycles:          c.Cycles,
		Instrs:          c.Instrs,
		HandlerInstrs:   c.HandlerInstrs,
		Exceptions:      c.Exceptions,
		IMissNative:     c.IMissNative,
		IMissCompressed: c.IMissCompressed,
		ExcCyclesMax:    c.ExcCyclesMax,
		FetchStalls:     c.FetchStalls,
		LoadStalls:      c.LoadStalls,
		LoadUseStalls:   c.LoadUseStalls,
		CPIStack:        make(map[string]uint64, cpu.NumCycleKinds),
	}
	for k := cpu.CycleKind(0); k < cpu.NumCycleKinds; k++ {
		m.CPIStack[k.Key()] = c.CPIStack[k]
	}
	return m
}

// Fingerprint identifies the configuration a trajectory entry was
// measured under. Simulated metrics are comparable whenever Scale
// matches. The toolchain and platform of the recording run are in the
// trajectory's sidecar manifest (obs.Manifest).
type Fingerprint struct {
	Scale  float64 `json:"scale"`
	GitSHA string  `json:"git_sha,omitempty"`
	// Codecs are the registered codec names (sorted), so a trajectory
	// entry records exactly which compression schemes the build carried.
	Codecs []string `json:"codecs,omitempty"`
}

// NewFingerprint captures the measurement configuration. GitSHA is left
// for the caller (it needs the working tree, not the runtime).
func NewFingerprint(scale float64) Fingerprint {
	return Fingerprint{Scale: scale, Codecs: codec.Names()}
}

// Entry is one complete registry run: a fingerprint plus one sample per
// workload, in registry order.
type Entry struct {
	Time        string      `json:"time"`
	Fingerprint Fingerprint `json:"fingerprint"`
	Samples     []Sample    `json:"samples"`
}

// Sample returns the entry's sample for the named workload.
func (e Entry) Sample(workload string) (Sample, bool) {
	for _, s := range e.Samples {
		if s.Workload == workload {
			return s, true
		}
	}
	return Sample{}, false
}
