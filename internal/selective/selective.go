// Package selective implements selective compression (paper §3.3): given
// a per-procedure profile, it chooses which procedures stay as native code
// so that decompression overhead is controlled at a cost in code size.
//
// Three selection policies rank the procedures of one profile.Profile:
//
//   - execution-based: by dynamic instruction count (the policy used by
//     MIPS16/Thumb-style systems),
//   - miss-based: by non-speculative I-cache misses, which models the
//     actual cost path of a cache-line decompressor (both are the
//     paper's), and
//   - cost-based: by measured instruction-delivery cycles
//     (profile.Cost.MissCost) — decompression handler cycles, exception
//     service and hardware fetch stalls, the quantity keeping a
//     procedure native actually removes. On a native training run the
//     fetch stalls alone rank the miss-dominated procedures, weighted by
//     how long each miss really stalled the machine.
package selective

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/cpu"
	"repro/internal/profile"
	"repro/internal/program"
	"repro/internal/session"
)

// Policy selects the profile metric used for ranking.
type Policy int

// Selection policies.
const (
	ByExecution Policy = iota
	ByMisses
	ByCost
)

func (p Policy) String() string {
	switch p {
	case ByMisses:
		return "miss"
	case ByCost:
		return "cost"
	}
	return "exec"
}

// metric is the quantity the policy ranks a procedure by.
func (p Policy) metric(c *profile.Cost) uint64 {
	switch p {
	case ByMisses:
		return c.IMissNative + c.IMissCompressed
	case ByCost:
		return c.MissCost()
	}
	return c.Instrs
}

// Thresholds are the coverage fractions the paper evaluates (§3.3): the
// top procedures are kept native until they account for this share of the
// profile metric.
var Thresholds = []float64{0.05, 0.10, 0.15, 0.20, 0.50}

// Select returns the names of the procedures to keep as native code: the
// highest-ranked procedures whose cumulative metric first reaches
// fraction * total. fraction <= 0 selects nothing, and neither a
// procedure whose metric is zero nor the outside bucket is ever
// selected. Ties break by procedure address.
func Select(prof *profile.Profile, policy Policy, fraction float64) map[string]bool {
	selected := make(map[string]bool)
	if fraction <= 0 || prof == nil {
		return selected
	}
	var procs []profile.ProcCost
	var total uint64
	for _, pr := range prof.Procs {
		if pr.Name != profile.OutsideName {
			procs = append(procs, pr)
			total += policy.metric(&pr.Cost)
		}
	}
	if total == 0 {
		return selected
	}
	sort.Slice(procs, func(i, j int) bool {
		mi, mj := policy.metric(&procs[i].Cost), policy.metric(&procs[j].Cost)
		if mi != mj {
			return mi > mj
		}
		return procs[i].Addr < procs[j].Addr
	})
	goal := fraction * float64(total)
	var cum float64
	for i := range procs {
		m := policy.metric(&procs[i].Cost)
		if m == 0 || cum >= goal {
			break
		}
		selected[procs[i].Name] = true
		cum += float64(m)
	}
	return selected
}

// Profile runs the image to completion on a machine with the given
// configuration and returns its per-procedure profile and run statistics.
// The paper gathers both execution and miss profiles from the original
// (native) program; note §5.3's caveat that re-laying the program out
// changes the miss profile — which is exactly what the experiments show.
func Profile(im *program.Image, cfg cpu.Config) (*profile.Profile, cpu.Stats, error) {
	rec := profile.NewRecorder(im)
	c, err := session.Machine(cfg, im, io.Discard, rec.Attach)
	if err != nil {
		return nil, cpu.Stats{}, err
	}
	if _, err := c.Run(); err != nil {
		return nil, cpu.Stats{}, fmt.Errorf("selective: profiling run: %v", err)
	}
	return rec.Profile(), c.Stats, nil
}
