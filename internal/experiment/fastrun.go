package experiment

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fastpath"
	"repro/internal/program"
)

// This file is the fast-tier counterpart of workload.go: the same
// (benchmark, options, cache) combinations measured with
// internal/fastpath instead of full detailed simulation. Both runs
// execute the whole program, so the native-baseline checksum check
// applies unchanged — every fast-tier sample is also a correctness
// check of the functional engine.

// SampledRun executes one fresh sampled simulation of bench at cacheKB
// and returns the CPI estimate. Like MeasureRun it verifies the
// program's own output against the cached native baseline; the
// simulation itself is never cached.
func (s *Suite) SampledRun(bench string, opts core.Options, cacheKB int, scfg fastpath.SampleConfig) (*fastpath.SampleResult, error) {
	im, nat, err := s.imageFor(bench, opts, cacheKB)
	if err != nil {
		return nil, err
	}
	c, err := cpu.New(s.machine(cacheKB))
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	c.Out = &out
	if err := c.Load(im); err != nil {
		return nil, err
	}
	res, err := fastpath.Sampled(c, scfg)
	if err != nil {
		return nil, fmt.Errorf("%s %s @%dKB sampled: %v", bench, opts.Scheme, cacheKB, err)
	}
	if res.ExitCode != 0 {
		return nil, fmt.Errorf("%s %s @%dKB sampled: exit code %d", bench, opts.Scheme, cacheKB, res.ExitCode)
	}
	if out.String() != nat {
		return nil, fmt.Errorf("%s %s @%dKB sampled: output %q, native baseline %q",
			bench, opts.Scheme, cacheKB, out.String(), nat)
	}
	return res, nil
}

// FunctionalRun executes one fresh purely functional run of bench at
// cacheKB and returns its architectural counters. The run is never
// cached; the checksum check keeps it honest.
func (s *Suite) FunctionalRun(bench string, opts core.Options, cacheKB int) (cpu.FunctStats, error) {
	im, nat, err := s.imageFor(bench, opts, cacheKB)
	if err != nil {
		return cpu.FunctStats{}, err
	}
	c, err := cpu.New(s.machine(cacheKB))
	if err != nil {
		return cpu.FunctStats{}, err
	}
	var out bytes.Buffer
	c.Out = &out
	if err := c.Load(im); err != nil {
		return cpu.FunctStats{}, err
	}
	code, err := fastpath.Functional(c)
	if err != nil {
		return cpu.FunctStats{}, fmt.Errorf("%s %s @%dKB functional: %v", bench, opts.Scheme, cacheKB, err)
	}
	if code != 0 {
		return cpu.FunctStats{}, fmt.Errorf("%s %s @%dKB functional: exit code %d", bench, opts.Scheme, cacheKB, code)
	}
	if out.String() != nat {
		return cpu.FunctStats{}, fmt.Errorf("%s %s @%dKB functional: output %q, native baseline %q",
			bench, opts.Scheme, cacheKB, out.String(), nat)
	}
	return c.FStats, nil
}

// imageFor resolves the run image for (bench, opts) plus the native
// baseline checksum at cacheKB, sharing the Suite's caches.
func (s *Suite) imageFor(bench string, opts core.Options, cacheKB int) (im *program.Image, checksum string, err error) {
	st, err := s.stateByName(bench)
	if err != nil {
		return nil, "", err
	}
	nat, err := s.nativeRun(st, cacheKB)
	if err != nil {
		return nil, "", err
	}
	im = st.image
	if opts.Scheme != "" {
		res, err := s.compressed(st, opts)
		if err != nil {
			return nil, "", err
		}
		im = res.Image
	}
	return im, nat.checksum, nil
}
