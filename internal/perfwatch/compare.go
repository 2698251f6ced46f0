package perfwatch

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/profile"
)

// Status classifies one workload's old-vs-new comparison.
type Status string

// Comparison outcomes.
const (
	// StatusSame: simulated metrics exactly equal.
	StatusSame Status = "same"
	// StatusFaster / StatusSlower: simulated cycles changed down / up.
	StatusFaster Status = "faster"
	StatusSlower Status = "slower"
	// StatusChanged: cycles equal but some other simulated counter moved
	// (e.g. a stall reclassified between CPI components).
	StatusChanged Status = "changed"
	// StatusSkipped: workload version differs, or the workload exists on
	// only one side — no comparison possible.
	StatusSkipped Status = "skipped"
)

// WorkloadDelta is one workload's full comparison.
type WorkloadDelta struct {
	Workload string `json:"workload"`
	Status   Status `json:"status"`
	Note     string `json:"note,omitempty"`

	OldCycles  uint64   `json:"old_cycles,omitempty"`
	NewCycles  uint64   `json:"new_cycles,omitempty"`
	CycleDelta float64  `json:"cycle_delta,omitempty"` // (new-old)/old
	SimDiffs   []string `json:"sim_diffs,omitempty"`

	// ProcRegressions names the top regressing procedures when the
	// simulated metrics differ and both samples carry per-procedure
	// attribution, e.g. "hot +12345 cycles (decomp +9876), warm +11
	// cycles" (profile.NamedRegressions; deterministic order). Empty
	// when nothing changed or either side predates the attribution axis.
	ProcRegressions string `json:"proc_regressions,omitempty"`
}

// Comparison is the full old-vs-new report.
type Comparison struct {
	ScaleMatch bool            `json:"scale_match"`
	Deltas     []WorkloadDelta `json:"deltas"`
}

// CompareEntries compares two trajectory entries workload by workload.
// Simulated metrics require equal Scale in the fingerprints (a scale
// mismatch marks every workload skipped — different workloads entirely).
func CompareEntries(old, new Entry) Comparison {
	c := Comparison{ScaleMatch: old.Fingerprint.Scale == new.Fingerprint.Scale}
	seen := map[string]bool{}
	names := make([]string, 0, len(old.Samples)+len(new.Samples))
	for _, s := range old.Samples {
		if !seen[s.Workload] {
			seen[s.Workload] = true
			names = append(names, s.Workload)
		}
	}
	for _, s := range new.Samples {
		if !seen[s.Workload] {
			seen[s.Workload] = true
			names = append(names, s.Workload)
		}
	}
	sort.Strings(names)

	for _, name := range names {
		d := WorkloadDelta{Workload: name}
		o, haveOld := old.Sample(name)
		n, haveNew := new.Sample(name)
		switch {
		case !haveOld:
			d.Status, d.Note = StatusSkipped, "new workload (no baseline)"
		case !haveNew:
			d.Status, d.Note = StatusSkipped, "workload removed"
		case o.Version != n.Version:
			d.Status = StatusSkipped
			d.Note = fmt.Sprintf("workload version changed (v%d -> v%d)", o.Version, n.Version)
		case !c.ScaleMatch:
			d.Status = StatusSkipped
			d.Note = fmt.Sprintf("scale mismatch (%.3g vs %.3g)", old.Fingerprint.Scale, new.Fingerprint.Scale)
		default:
			d.OldCycles, d.NewCycles = o.Sim.Cycles, n.Sim.Cycles
			if o.Sim.Cycles != 0 {
				d.CycleDelta = (float64(n.Sim.Cycles) - float64(o.Sim.Cycles)) / float64(o.Sim.Cycles)
			}
			d.SimDiffs = o.Sim.Diff(n.Sim)
			if len(d.SimDiffs) > 0 && len(o.Procs) > 0 && len(n.Procs) > 0 {
				d.ProcRegressions = profile.NamedRegressions(o.Procs, n.Procs, 3)
			}
			switch {
			case len(d.SimDiffs) == 0:
				d.Status = StatusSame
			case n.Sim.Cycles > o.Sim.Cycles:
				d.Status = StatusSlower
			case n.Sim.Cycles < o.Sim.Cycles:
				d.Status = StatusFaster
			default:
				d.Status = StatusChanged
			}
		}
		c.Deltas = append(c.Deltas, d)
	}
	return c
}

// SimChanged reports whether any workload's simulated metrics differ.
func (c Comparison) SimChanged() bool {
	for _, d := range c.Deltas {
		if d.Status == StatusSlower || d.Status == StatusFaster || d.Status == StatusChanged {
			return true
		}
	}
	return false
}

// Format renders the comparison as an aligned table. verbose adds the
// per-field simulated diffs under each changed workload.
func (c Comparison) Format(w io.Writer, verbose bool) {
	fmt.Fprintf(w, "%-24s %-8s %14s %14s %9s\n",
		"workload", "status", "old cycles", "new cycles", "Δcycles")
	for _, d := range c.Deltas {
		switch d.Status {
		case StatusSkipped:
			fmt.Fprintf(w, "%-24s %-8s %14s %14s %9s  %s\n", d.Workload, d.Status, "-", "-", "-", d.Note)
		default:
			fmt.Fprintf(w, "%-24s %-8s %14d %14d %+8.3f%%\n",
				d.Workload, d.Status, d.OldCycles, d.NewCycles, d.CycleDelta*100)
			if verbose && len(d.SimDiffs) > 0 {
				for _, diff := range d.SimDiffs {
					fmt.Fprintf(w, "    %s\n", diff)
				}
				if d.ProcRegressions != "" {
					fmt.Fprintf(w, "    top regressing procedures: %s\n", d.ProcRegressions)
				}
			}
		}
	}
}

// Summary returns a one-line digest, e.g. "2 slower, 8 same".
func (c Comparison) Summary() string {
	counts := map[Status]int{}
	for _, d := range c.Deltas {
		counts[d.Status]++
	}
	var parts []string
	for _, st := range []Status{StatusSlower, StatusFaster, StatusChanged, StatusSame, StatusSkipped} {
		if counts[st] > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", counts[st], st))
		}
	}
	if len(parts) == 0 {
		return "no workloads compared"
	}
	return strings.Join(parts, ", ")
}
