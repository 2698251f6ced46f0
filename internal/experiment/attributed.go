package experiment

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/program"
	"repro/internal/selective"
)

// Spatial-attribution measurement: AttributedRun is MeasureRun's
// profiled sibling (one fresh simulation with a profile.Recorder
// attached, verified against both the attribution sum invariant and the
// native output checksum), and ProfileGuided is the experiment the
// native runs' attribution enables — selective compression driven by
// measured attributed cycles (selective.ByCost) compared against the
// paper's exec- and miss-count policies on the same benchmarks.

// AttributedRun executes one fresh profiled simulation of bench at
// cacheKB and returns the verified attribution profile: an empty
// opts.Scheme runs the native image, any other compresses it (cached),
// and the run's output is checked against the native baseline — a
// profiled sample is also a correctness check.
func (s *Suite) AttributedRun(bench string, opts core.Options, cacheKB int) (*profile.Profile, error) {
	st, err := s.stateByName(bench)
	if err != nil {
		return nil, err
	}
	nat, err := s.nativeRun(st, cacheKB)
	if err != nil {
		return nil, err
	}
	im := st.image
	scheme := "native"
	if opts.Scheme != "" {
		res, err := s.compressed(st, opts)
		if err != nil {
			return nil, err
		}
		im = res.Image
		scheme = string(opts.Scheme)
	}
	o, err := s.runImage(im, cacheKB, true)
	if err != nil {
		return nil, fmt.Errorf("%s %s @%dKB: %v", bench, opts.Scheme, cacheKB, err)
	}
	if o.checksum != nat.checksum {
		return nil, fmt.Errorf("%s %s @%dKB: output %q, native baseline %q",
			bench, opts.Scheme, cacheKB, o.checksum, nat.checksum)
	}
	o.prof.SetIdentity(bench, scheme)
	return o.prof, nil
}

// ProfileGuidedRow is one point of the selection-policy comparison.
type ProfileGuidedRow struct {
	Bench     string
	Policy    string // "exec", "miss", or "profile"
	Threshold float64
	Ratio     float64 // compression ratio at this selection
	Slowdown  float64 // vs native at 16KB
	Native    int     // procedures kept native
}

// profileGuidedThresholds are the coverage fractions the comparison
// evaluates (a subset of selective.Thresholds keeping the table small).
var profileGuidedThresholds = []float64{0.05, 0.20, 0.50}

// ProfileGuided compares profile-guided selection (measured attributed
// cycles, selective.ByCost) against the paper's execution- and
// miss-count policies: the same dictionary scheme, the same coverage
// thresholds, selection driven by three different rankings of the same
// native training run.
func (s *Suite) ProfileGuided() ([]ProfileGuidedRow, error) {
	var rows []ProfileGuidedRow
	for _, p := range s.Benchmarks() {
		st, err := s.state(p)
		if err != nil {
			return nil, err
		}
		nat, err := s.nativeRun(st, 16)
		if err != nil {
			return nil, err
		}
		for _, th := range profileGuidedThresholds {
			for _, policy := range []struct {
				name string
				by   selective.Policy
			}{{"exec", selective.ByExecution}, {"miss", selective.ByMisses}, {"profile", selective.ByCost}} {
				sel := selective.Select(nat.prof, policy.by, th)
				if len(sel) >= len(st.image.Procs) {
					continue // nothing left to compress at this coverage
				}
				opts := core.Options{Scheme: program.SchemeDict, ShadowRF: true, NativeProcs: sel}
				o, res, err := s.compressedRun(st, opts, 16)
				if err != nil {
					return nil, err
				}
				rows = append(rows, ProfileGuidedRow{
					Bench:     p.Name,
					Policy:    policy.name,
					Threshold: th,
					Ratio:     res.Ratio(),
					Slowdown:  slowdown(o, nat),
					Native:    len(sel),
				})
			}
		}
	}
	return rows, nil
}

// FormatProfileGuided renders the selection-policy comparison.
func FormatProfileGuided(rows []ProfileGuidedRow) string {
	var b strings.Builder
	b.WriteString("Profile-guided selection vs exec/miss policies (dictionary+RF, 16KB)\n")
	fmt.Fprintf(&b, "  %-12s %-8s %9s %8s %9s %7s\n",
		"benchmark", "policy", "coverage", "ratio", "slowdown", "native")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-12s %-8s %8.0f%% %8.3f %9.2f %7d\n",
			r.Bench, r.Policy, r.Threshold*100, r.Ratio, r.Slowdown, r.Native)
	}
	return b.String()
}
