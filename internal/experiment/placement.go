package experiment

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/placement"
	"repro/internal/program"
	"repro/internal/selective"
)

// PlacementRow compares the paper's default layout (original procedure
// order within each region) against profile-guided Pettis–Hansen
// placement, for one benchmark and selection threshold.
type PlacementRow struct {
	Bench     string
	Threshold float64
	Preserve  float64 // slowdown with original order
	Guided    float64 // slowdown with profile-guided order
}

// Placement runs the unified selective-compression + code-placement
// study the paper proposes as future work (§5.3): the same miss-based
// selection is laid out either in original order or in call-affinity
// order, and the resulting dictionary-compressed programs are compared.
func (s *Suite) Placement() ([]PlacementRow, error) {
	var rows []PlacementRow
	for _, p := range s.Benchmarks() {
		st, err := s.state(p)
		if err != nil {
			return nil, err
		}
		nat, err := s.nativeRun(st, 16)
		if err != nil {
			return nil, err
		}
		prof := st.profileAt(16)
		order := placement.Order(prof)
		for _, th := range []float64{0, 0.20} {
			sel := selective.Select(prof, selective.ByMisses, th)
			if len(sel) >= len(st.image.Procs) {
				continue
			}
			base := core.Options{Scheme: program.SchemeDict, ShadowRF: true, NativeProcs: sel}
			plain, _, err := s.compressedRun(st, base, 16)
			if err != nil {
				return nil, err
			}
			guidedOpts := base
			guidedOpts.Order = order
			guided, _, err := s.compressedRun(st, guidedOpts, 16)
			if err != nil {
				return nil, fmt.Errorf("%s placement: %v", p.Name, err)
			}
			rows = append(rows, PlacementRow{
				Bench:     p.Name,
				Threshold: th,
				Preserve:  slowdown(plain, nat),
				Guided:    slowdown(guided, nat),
			})
		}
	}
	return rows, nil
}

// FormatPlacement renders the placement study.
func FormatPlacement(rows []PlacementRow) string {
	var b strings.Builder
	b.WriteString("Unified selective compression + code placement (dictionary, 16KB)\n")
	fmt.Fprintf(&b, "  %-12s %9s %9s %9s %8s\n",
		"benchmark", "selection", "preserve", "guided", "delta")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-12s %8.0f%% %9.2f %9.2f %+7.1f%%\n",
			r.Bench, r.Threshold*100, r.Preserve, r.Guided,
			(r.Guided/r.Preserve-1)*100)
	}
	return b.String()
}
