package experiment

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/program"
	"repro/internal/session"
)

// Ablations runs the design-choice studies called out in DESIGN.md, all
// on the "go" stand-in (thrashy enough that decompression cost is
// visible). Each sweep varies one mechanism parameter of the
// architecture and reports the dictionary and CodePack slowdowns:
//
//   - exception-entry cost (the pipeline-flush price of invoking the
//     handler, paper §4),
//   - swic serialisation cost (the paper requires the pipeline to be
//     non-speculative before swic executes),
//   - main-memory latency (how the bus model shifts the balance), and
//   - the null "copy" decompressor, isolating the exception+swic
//     mechanism overhead from actual decoding work.
func (s *Suite) Ablations() (string, error) {
	var b strings.Builder
	bench := "go"
	if len(s.Only) > 0 {
		bench = s.Only[0]
	}
	p, st, err := s.namedState(bench)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "Ablations (benchmark %s, 16KB I-cache)\n", p)

	runWith := func(opts core.Options, mutate func(*cpu.Config)) (float64, error) {
		res, err := s.compressed(st, opts)
		if err != nil {
			return 0, err
		}
		cfg := s.machine(16)
		if mutate != nil {
			mutate(&cfg)
		}
		nat, err := runConfigured(st.image, cfg)
		if err != nil {
			return 0, err
		}
		comp, err := runConfigured(res.Image, cfg)
		if err != nil {
			return 0, err
		}
		if comp.checksum != nat.checksum {
			return 0, fmt.Errorf("ablation: checksum diverged for %s", opts.Scheme)
		}
		return slowdown(comp, nat), nil
	}

	dictOpts := core.Options{Scheme: program.SchemeDict, ShadowRF: true}
	cpOpts := core.Options{Scheme: program.SchemeCodePack, ShadowRF: true}

	b.WriteString("  exception-entry cost sweep (cycles -> D+RF, CP+RF slowdown)\n")
	for _, cost := range []int{0, 6, 20, 50} {
		m := func(c *cpu.Config) { c.ExceptionEntry = cost }
		d, err := runWith(dictOpts, m)
		if err != nil {
			return "", err
		}
		cp, err := runWith(cpOpts, m)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "    entry=%2d: D+RF %.2f  CP+RF %.2f\n", cost, d, cp)
	}

	b.WriteString("  swic serialisation cost sweep (extra cycles per swic)\n")
	for _, cost := range []int{0, 1, 4} {
		m := func(c *cpu.Config) { c.SwicExtraCycles = cost }
		d, err := runWith(dictOpts, m)
		if err != nil {
			return "", err
		}
		cp, err := runWith(cpOpts, m)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "    swic=+%d: D+RF %.2f  CP+RF %.2f\n", cost, d, cp)
	}

	b.WriteString("  memory first-access latency sweep (bus cycles)\n")
	for _, lat := range []int{5, 10, 20} {
		m := func(c *cpu.Config) { c.Bus.FirstCycles = lat }
		d, err := runWith(dictOpts, m)
		if err != nil {
			return "", err
		}
		cp, err := runWith(cpOpts, m)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "    first=%2d: D+RF %.2f  CP+RF %.2f\n", lat, d, cp)
	}

	b.WriteString("  mechanism overhead: null (copy) decompressor vs real decoders\n")
	for _, o := range []core.Options{
		{Scheme: core.SchemeCopy, ShadowRF: true},
		dictOpts,
		cpOpts,
	} {
		sd, err := runWith(o, nil)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "    %-9s %.2f\n", o.Scheme, sd)
	}
	return b.String(), nil
}

func (s *Suite) namedState(name string) (string, *benchState, error) {
	for _, p := range s.Benchmarks() {
		if p.Name == name {
			st, err := s.state(p)
			return name, st, err
		}
	}
	benches := s.Benchmarks()
	if len(benches) == 0 {
		return "", nil, fmt.Errorf("experiment: no benchmarks selected")
	}
	st, err := s.state(benches[0])
	return benches[0].Name, st, err
}

// runConfigured executes an image under an explicit machine config,
// outside the suite's caches (ablations vary the config).
func runConfigured(im *program.Image, cfg cpu.Config) (runOutcome, error) {
	var out strings.Builder
	c, err := session.Machine(cfg, im, &out)
	if err != nil {
		return runOutcome{}, err
	}
	code, err := c.Run()
	if err != nil {
		return runOutcome{}, err
	}
	if code != 0 {
		return runOutcome{}, fmt.Errorf("exit code %d", code)
	}
	return runOutcome{stats: c.Stats, checksum: out.String()}, nil
}
