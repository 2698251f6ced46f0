package experiment

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/selective"
	"repro/internal/synth"
)

// This file is the per-workload measurement API used by
// internal/perfwatch: unlike the table/figure producers above, each call
// runs ONE (benchmark, options, cache) combination and returns its raw
// simulated stats. Image building, compression and the native baseline
// are cached on the Suite exactly as for the tables, but the measured
// simulation itself is always executed fresh — callers time it, so a
// memoised result would be a lie.

// stateByName resolves a benchmark name to its cached state.
func (s *Suite) stateByName(bench string) (*benchState, error) {
	p, ok := synth.ByName(bench)
	if !ok {
		return nil, fmt.Errorf("experiment: unknown benchmark %q", bench)
	}
	return s.state(p)
}

// SelectNative returns the procedures selective compression keeps native
// for bench under the policy at the coverage fraction, using the
// per-procedure profile of the native run at the paper's baseline 16KB
// I-cache (running it if needed) — the same profile source as Figure 5.
func (s *Suite) SelectNative(bench string, policy selective.Policy, fraction float64) (map[string]bool, error) {
	st, err := s.stateByName(bench)
	if err != nil {
		return nil, err
	}
	nat, err := s.nativeRun(st, 16)
	if err != nil {
		return nil, err
	}
	return selective.Select(nat.prof, policy, fraction), nil
}

// MeasureRun executes one fresh simulation of bench at cacheKB and
// returns its stats. An empty opts.Scheme runs the native image; any
// other scheme compresses it (cached per options) and verifies the
// run's program output against the cached native baseline, so every
// measured sample is also a correctness check. The simulation itself is
// never cached: callers wrap this in wall-clock timing.
func (s *Suite) MeasureRun(bench string, opts core.Options, cacheKB int) (cpu.Stats, error) {
	st, err := s.stateByName(bench)
	if err != nil {
		return cpu.Stats{}, err
	}
	nat, err := s.nativeRun(st, cacheKB)
	if err != nil {
		return cpu.Stats{}, err
	}
	im := st.image
	if opts.Scheme != "" {
		res, err := s.compressed(st, opts)
		if err != nil {
			return cpu.Stats{}, err
		}
		im = res.Image
	}
	o, err := s.runImage(im, cacheKB, false)
	if err != nil {
		return cpu.Stats{}, fmt.Errorf("%s %s @%dKB: %v", bench, opts.Scheme, cacheKB, err)
	}
	if o.checksum != nat.checksum {
		return cpu.Stats{}, fmt.Errorf("%s %s @%dKB: output %q, native baseline %q",
			bench, opts.Scheme, cacheKB, o.checksum, nat.checksum)
	}
	return o.stats, nil
}
