// Package profile is the simulator's spatial cost-attribution layer:
// where telemetry answers "how much did the run cost" (the CPI stack)
// and "when" (windowed sampling), this package answers "where" — every
// cpu.Stats cycle component is tagged at its source site with the
// responsible fetch PC and aggregated live into per-cache-line and
// per-procedure cost records.
//
// The house invariant carries over from the timeline layer: the
// component-wise sum of all line records (and, independently, all
// procedure records) is bit-identical to the whole-run cpu.Stats.
// Recorder.Verify enforces it; ccprof, simrun -profile, the diffsim
// oracle and the batch tests all call it, so an attribution hole is a
// loud simulator bug, never a silent reporting gap.
//
// Attribution semantics follow the paper's cost model: cycles charged
// while the decompression handler services a miss — the entry flush,
// every handler instruction, loads of compressed bytes, the iret
// redirect — are attributed to the faulting cache line (the EPC), not
// to the handler RAM. A line's record therefore reads directly as "what
// this line's residency cost", which is exactly the input selective
// compression and placement need.
package profile

import (
	"fmt"
	"sort"

	"repro/internal/cpu"
	"repro/internal/obs"
)

// ArtifactSchema versions the serialized profile artifact. History:
//
//	1 — initial shape (PR 9): per-line and per-procedure Cost records,
//	    whole-run total, embedded provenance manifest.
//
// Additive changes (new fields) do not bump the version; renames and
// semantic changes do.
const ArtifactSchema = 1

// Cost is one attribution bucket: the full cpu.Stats decomposition
// (plus bus traffic) charged to a line or procedure. All fields are
// sums of per-commit deltas except ExcCyclesMax, which is the maximum
// single exception-service latency attributed to the bucket.
type Cost struct {
	Cycles        uint64 `json:"cycles"`
	Instrs        uint64 `json:"instrs"`
	HandlerInstrs uint64 `json:"handler_instrs"`

	IMissNative     uint64 `json:"imiss_native"`
	IMissCompressed uint64 `json:"imiss_compressed"`
	Exceptions      uint64 `json:"exceptions"`

	FetchStalls   uint64 `json:"fetch_stalls"`
	LoadStalls    uint64 `json:"load_stalls"`
	LoadUseStalls uint64 `json:"load_use_stalls"`

	ExcCyclesTotal uint64 `json:"exc_cycles_total"`
	ExcCyclesMax   uint64 `json:"exc_cycles_max"`

	// CPIStack attributes the bucket's cycles by component; summed over
	// all buckets it reproduces the whole-run stack bit for bit.
	CPIStack cpu.CPIStack `json:"cpi_stack"`

	BusReads uint64 `json:"bus_reads"`
	BusBytes uint64 `json:"bus_bytes"`
}

// Add accumulates o into c. Counter fields sum; ExcCyclesMax merges as
// a maximum (the max over disjoint interval sets is the max of their
// maxima, so Merge and the recorder share this one definition).
func (c *Cost) Add(o Cost) { c.add(&o) }

// add is Add through a pointer, for the ledger's flush.
func (c *Cost) add(o *Cost) {
	c.Cycles += o.Cycles
	c.Instrs += o.Instrs
	c.HandlerInstrs += o.HandlerInstrs
	c.IMissNative += o.IMissNative
	c.IMissCompressed += o.IMissCompressed
	c.Exceptions += o.Exceptions
	c.FetchStalls += o.FetchStalls
	c.LoadStalls += o.LoadStalls
	c.LoadUseStalls += o.LoadUseStalls
	c.ExcCyclesTotal += o.ExcCyclesTotal
	if o.ExcCyclesMax > c.ExcCyclesMax {
		c.ExcCyclesMax = o.ExcCyclesMax
	}
	for k := range o.CPIStack {
		c.CPIStack[k] += o.CPIStack[k]
	}
	c.BusReads += o.BusReads
	c.BusBytes += o.BusBytes
}

// delta sets c to the counters' movement from prev to now. Its
// ExcCyclesMax is the movement's ExcCyclesTotal: the latency of the at
// most one service interval a ledger run closes.
func (c *Cost) delta(now, prev *Cost) {
	c.Cycles = now.Cycles - prev.Cycles
	c.Instrs = now.Instrs - prev.Instrs
	c.HandlerInstrs = now.HandlerInstrs - prev.HandlerInstrs
	c.IMissNative = now.IMissNative - prev.IMissNative
	c.IMissCompressed = now.IMissCompressed - prev.IMissCompressed
	c.Exceptions = now.Exceptions - prev.Exceptions
	c.FetchStalls = now.FetchStalls - prev.FetchStalls
	c.LoadStalls = now.LoadStalls - prev.LoadStalls
	c.LoadUseStalls = now.LoadUseStalls - prev.LoadUseStalls
	c.ExcCyclesTotal = now.ExcCyclesTotal - prev.ExcCyclesTotal
	c.ExcCyclesMax = c.ExcCyclesTotal
	for k := range c.CPIStack {
		c.CPIStack[k] = now.CPIStack[k] - prev.CPIStack[k]
	}
	c.BusReads = now.BusReads - prev.BusReads
	c.BusBytes = now.BusBytes - prev.BusBytes
}

// DecompCycles returns the cycles this bucket spent on decompression
// work: handler execution plus the exception-service mechanism. For a
// native run it is always zero; for a compressed run it is the paper's
// per-location decompression overhead.
func (c Cost) DecompCycles() uint64 {
	return c.CPIStack[cpu.CycleHandler] + c.CPIStack[cpu.CycleExcService]
}

// MissCost returns the cycles attributable to instruction delivery:
// decompression work plus hardware fetch stalls. This is the measured
// quantity FromProfile ranks procedures by.
func (c Cost) MissCost() uint64 {
	return c.DecompCycles() + c.CPIStack[cpu.CycleFetchStall]
}

// DecompShare returns the fraction of the bucket's cycles spent on
// decompression work: handler execution plus exception service.
func (c Cost) DecompShare() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.DecompCycles()) / float64(c.Cycles)
}

// CPI returns the bucket's cycles per committed instruction (user +
// handler — a bucket may be handler-only).
func (c Cost) CPI() float64 {
	n := c.Instrs + c.HandlerInstrs
	if n == 0 {
		return 0
	}
	return float64(c.Cycles) / float64(n)
}

// IsZero reports whether no event was ever attributed to the bucket.
func (c Cost) IsZero() bool { return c == Cost{} }

// LineCost is the cost record of one I-cache line (Addr is the line
// base address).
type LineCost struct {
	Addr uint32 `json:"addr"`
	Cost
}

// ProcCost is the cost record of one procedure. The pseudo-procedure
// OutsideName collects commits at addresses outside the image's
// procedure table (its Addr is 0).
type ProcCost struct {
	Name string `json:"name"`
	Addr uint32 `json:"addr"`
	Cost
}

// OutsideName labels the bucket for commits that fall outside every
// procedure of the image's table.
const OutsideName = "(outside)"

// Profile is one run's full spatial attribution: two independent exact
// decompositions of the whole-run cpu.Stats (by cache line and by
// procedure) plus the total they must sum to.
type Profile struct {
	SchemaVersion int    `json:"schema_version"`
	Image         string `json:"image,omitempty"`
	Scheme        string `json:"scheme,omitempty"`
	// LineBytes is the I-cache line size the line records are keyed by.
	LineBytes int `json:"line_bytes"`

	// Total is the whole-run cost (cpu.Stats plus bus counters); the
	// line records and the procedure records each sum to it exactly.
	Total Cost `json:"total"`

	// Lines holds every cache line that was ever charged a cycle,
	// ascending by address. Zero-cost lines are omitted — deterministic,
	// because a line either appears in the attribution map (>= 1 cycle:
	// every commit charges at least its base cycle) or it does not.
	Lines []LineCost `json:"lines"`

	// Procs holds every procedure of the image's table in address
	// order — including zero-cost ones, so profile consumers (placement,
	// diff alignment) always see the full table — plus, when anything
	// executed outside the table, a trailing OutsideName bucket.
	Procs []ProcCost `json:"procs"`

	// Manifest is the embedded run provenance (timing-free form), set by
	// SetManifest.
	Manifest *obs.Manifest `json:"manifest,omitempty"`
}

// SetIdentity records what ran.
func (p *Profile) SetIdentity(image, scheme string) {
	p.Image, p.Scheme = image, scheme
}

// SetManifest embeds run provenance (always the timing-free Provenance
// copy, so identical runs serialize byte-identically).
func (p *Profile) SetManifest(m *obs.Manifest) {
	if m == nil {
		p.Manifest = nil
		return
	}
	p.Manifest = m.Provenance()
}

// ProcByName returns the named procedure's record, or nil.
func (p *Profile) ProcByName(name string) *ProcCost {
	for i := range p.Procs {
		if p.Procs[i].Name == name {
			return &p.Procs[i]
		}
	}
	return nil
}

// Check revalidates the artifact invariants from the serialized data
// alone: schema version, sorted strictly-ascending line addresses, no
// zero-cost line records, and both decompositions summing bit-identically
// to Total. Load calls it, so a corrupted or hand-edited profile is
// refused before any consumer trusts its numbers.
func (p *Profile) Check() error {
	if p.SchemaVersion != ArtifactSchema {
		return fmt.Errorf("profile: artifact schema %d, this build supports %d", p.SchemaVersion, ArtifactSchema)
	}
	if p.LineBytes <= 0 {
		return fmt.Errorf("profile: non-positive line_bytes %d", p.LineBytes)
	}
	var lineSum Cost
	for i, l := range p.Lines {
		if i > 0 && p.Lines[i-1].Addr >= l.Addr {
			return fmt.Errorf("profile: line records not strictly ascending at %#x", l.Addr)
		}
		if l.Cost.IsZero() {
			return fmt.Errorf("profile: zero-cost line record at %#x (zero lines must be omitted)", l.Addr)
		}
		lineSum.Add(l.Cost)
	}
	if err := checkSum("lines", lineSum, p.Total); err != nil {
		return err
	}
	var procSum Cost
	seen := make(map[string]bool, len(p.Procs))
	for _, pr := range p.Procs {
		if seen[pr.Name] {
			return fmt.Errorf("profile: duplicate procedure record %q", pr.Name)
		}
		seen[pr.Name] = true
		procSum.Add(pr.Cost)
	}
	return checkSum("procs", procSum, p.Total)
}

// checkSum compares one decomposition's component-wise sum against the
// whole-run total, naming the first field that drifts.
func checkSum(axis string, sum, total Cost) error {
	if name, got, want := drift(sum, total); name != "" {
		return fmt.Errorf("profile: %s sum invariant: %s: records sum to %d, whole run has %d (diff %+d)",
			axis, name, got, want, int64(got)-int64(want))
	}
	return nil
}

// drift names the first field where sum and total differ, with both
// values; the name is "" when they are equal.
func drift(sum, total Cost) (string, uint64, uint64) {
	if sum == total {
		return "", 0, 0
	}
	fields := []struct {
		name      string
		got, want uint64
	}{
		{"cycles", sum.Cycles, total.Cycles},
		{"instrs", sum.Instrs, total.Instrs},
		{"handler_instrs", sum.HandlerInstrs, total.HandlerInstrs},
		{"imiss_native", sum.IMissNative, total.IMissNative},
		{"imiss_compressed", sum.IMissCompressed, total.IMissCompressed},
		{"exceptions", sum.Exceptions, total.Exceptions},
		{"fetch_stalls", sum.FetchStalls, total.FetchStalls},
		{"load_stalls", sum.LoadStalls, total.LoadStalls},
		{"load_use_stalls", sum.LoadUseStalls, total.LoadUseStalls},
		{"exc_cycles_total", sum.ExcCyclesTotal, total.ExcCyclesTotal},
		{"exc_cycles_max", sum.ExcCyclesMax, total.ExcCyclesMax},
		{"bus_reads", sum.BusReads, total.BusReads},
		{"bus_bytes", sum.BusBytes, total.BusBytes},
	}
	for k := cpu.CycleKind(0); k < cpu.NumCycleKinds; k++ {
		fields = append(fields, struct {
			name      string
			got, want uint64
		}{"cpi_stack." + k.Key(), sum.CPIStack[k], total.CPIStack[k]})
	}
	for _, f := range fields {
		if f.got != f.want {
			return f.name, f.got, f.want
		}
	}
	return "(unidentified field)", 0, 0
}

// NamedCost is the compact per-procedure form carried in perfwatch
// trajectory samples: just enough to rank and explain a cycle
// regression by procedure.
type NamedCost struct {
	Name         string `json:"name"`
	Cycles       uint64 `json:"cycles"`
	DecompCycles uint64 `json:"decomp_cycles,omitempty"`
}

// NamedCosts returns the profile's procedures with nonzero cost, in
// table (address) order — the trajectory-sample form.
func (p *Profile) NamedCosts() []NamedCost {
	var out []NamedCost
	for _, pr := range p.Procs {
		if pr.Cost.IsZero() {
			continue
		}
		out = append(out, NamedCost{Name: pr.Name, Cycles: pr.Cycles, DecompCycles: pr.DecompCycles()})
	}
	return out
}

// ProcShare is one row of the report summary: a procedure and its share
// of the run.
type ProcShare struct {
	Name         string  `json:"name"`
	Cycles       uint64  `json:"cycles"`
	Fraction     float64 `json:"fraction"` // of total cycles
	DecompCycles uint64  `json:"decomp_cycles"`
}

// Summary is the attribution stanza embedded in telemetry reports
// (report schema v4): counts plus the top procedures by cycles.
type Summary struct {
	LineBytes int         `json:"line_bytes"`
	Lines     int         `json:"lines"`
	Procs     int         `json:"procs"` // procedures with nonzero cost
	TopProcs  []ProcShare `json:"top_procs,omitempty"`
}

// Summarize digests the profile into the report stanza with at most
// top procedures, ranked by cycles descending (ties by name ascending,
// so the stanza is byte-stable).
func (p *Profile) Summarize(top int) *Summary {
	s := &Summary{LineBytes: p.LineBytes, Lines: len(p.Lines)}
	var ranked []ProcShare
	for _, pr := range p.Procs {
		if pr.Cost.IsZero() {
			continue
		}
		s.Procs++
		share := ProcShare{Name: pr.Name, Cycles: pr.Cycles, DecompCycles: pr.DecompCycles()}
		if p.Total.Cycles > 0 {
			share.Fraction = float64(pr.Cycles) / float64(p.Total.Cycles)
		}
		ranked = append(ranked, share)
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].Cycles != ranked[j].Cycles {
			return ranked[i].Cycles > ranked[j].Cycles
		}
		return ranked[i].Name < ranked[j].Name
	})
	if top > 0 && len(ranked) > top {
		ranked = ranked[:top]
	}
	s.TopProcs = ranked
	return s
}
