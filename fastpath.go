package rtd

// The fast tier: functional execution, sampled simulation and
// checkpoints (internal/fastpath). See docs/performance.md for when
// sampling is sound and how the confidence interval is computed.

import (
	"bytes"

	"repro/internal/cpu"
	"repro/internal/fastpath"
)

// FunctStats counts functional-engine work (no timing columns: the
// functional engine charges no cycles).
type FunctStats = cpu.FunctStats

// SampleConfig parameterises sampled simulation: detailed measurement
// window, functional fast-forward interval, detailed warmup (all in
// user instructions).
type SampleConfig = fastpath.SampleConfig

// SampleResult reports a sampled run: the CPI ratio estimate, its 95%
// confidence interval, and the measured-window Stats accumulation.
type SampleResult = fastpath.SampleResult

// Checkpoint is a complete machine state with a schema-versioned,
// checksummed on-disk format (fastpath.Load / Checkpoint.Save).
type Checkpoint = fastpath.Checkpoint

// DefaultSampleConfig returns the tuned sampling parameters that hold
// sampled CPI within 1% of exact on the benchmark registry.
func DefaultSampleConfig() SampleConfig { return fastpath.DefaultSampleConfig() }

// FunctionalRun executes the image on the functional fast-forward
// engine: identical architectural results (output, exit code, memory),
// no timing — the returned RunResult's Stats are all zero, and the
// work shows up in FunctStats instead.
func FunctionalRun(im *Image, cfg MachineConfig) (RunResult, FunctStats, error) {
	var out bytes.Buffer
	c, err := machine(im, cfg, &out)
	if err != nil {
		return RunResult{}, FunctStats{}, err
	}
	code, err := fastpath.Functional(c)
	if err != nil {
		return RunResult{}, FunctStats{}, err
	}
	return RunResult{ExitCode: code, Output: out.String(), Stats: c.Stats}, c.FStats, nil
}

// SampledRun executes the image under SMARTS-style sampled simulation:
// detailed measurement windows alternating with functional
// fast-forward. It returns the sample estimate and the program's
// output (which, unlike timing, is exact).
func SampledRun(im *Image, cfg MachineConfig, scfg SampleConfig) (*SampleResult, string, error) {
	var out bytes.Buffer
	c, err := machine(im, cfg, &out)
	if err != nil {
		return nil, "", err
	}
	res, err := fastpath.Sampled(c, scfg)
	if err != nil {
		return nil, "", err
	}
	return res, out.String(), nil
}
