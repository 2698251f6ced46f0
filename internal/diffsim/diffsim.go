// Package diffsim is a differential co-simulation fuzzing harness for
// the compression pipeline. Each case generates a seeded random program
// (internal/synth), builds five images of it — native, dictionary,
// CodePack, selective (a dictionary image with a seed-chosen subset of
// procedures left native), and sliding-window LZ — and runs all five
// through internal/cpu in lockstep (verify.LockstepMulti), asserting:
//
//   - architectural equivalence: every committed user instruction,
//     the full register file (with the verifier's code-address masking),
//     HI/LO, final data memory, syscall output, and exit codes;
//   - replay: a compressed image run with handler-activation replay
//     leaves the machine a ReplayCheck run leaves (replay.go);
//   - oracle invariants: every swic executed by a handler writes exactly
//     the native image's bytes at the target address, every image's
//     cycle count decomposes exactly into its microarchitectural event
//     counts, and the cache/bpred/exception statistics are mutually
//     consistent (e.g. a compressed image's exceptions equal its
//     compressed-region misses, the native image takes none).
//
// On a mismatch the harness delta-debugs the generating program
// (shrink.go) down to a minimal reproducer. Known bugs can be injected
// with Mutation (mutate.go) to prove end-to-end detection power.
package diffsim

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/profile"
	"repro/internal/program"
	"repro/internal/synth"
	"repro/internal/telemetry"
	"repro/internal/verify"
)

// ImageKinds names the five images of every case, in run order.
// Index 0 is the lockstep reference.
var ImageKinds = []string{"native", "dict", "codepack", "selective", "lz"}

// Options configures one differential check.
type Options struct {
	// ShadowRF selects the shadow-register-file handler variants.
	ShadowRF bool
	// MaxSteps bounds committed user instructions per machine
	// (0 = 200000). Exceeding it is an infrastructure skip, not a
	// finding: generated programs always terminate.
	MaxSteps uint64
	// Mutation, when set, injects a known bug into the built images
	// before the run (self-check of the harness's detection power).
	Mutation *Mutation
	// Functional enables the functional-lockstep oracle: every image is
	// additionally replayed on the functional fast-forward engine and
	// its final architectural state must match the detailed run
	// (functional.go).
	Functional bool
	// FunctionalBreak corrupts the functional engine's handler
	// execution (cpu.Config.FunctionalBreak) — the functional oracle's
	// own detection-power self-check. Only meaningful with Functional.
	FunctionalBreak bool
	// ICacheBytes overrides the I-cache size (0 = the default 16 KiB).
	// Corpus entries use a small cache to force swic churn — the same
	// compressed line repeatedly evicted and re-materialised — which
	// generated programs are too small to provoke at the default size.
	ICacheBytes int
}

// Failure describes one confirmed differential finding.
type Failure struct {
	Seed    int64
	Image   string // which image kind misbehaved ("" if cross-cutting)
	Reason  string
	Program *synth.RandProgram
}

func (f *Failure) Error() string {
	return fmt.Sprintf("diffsim: seed %d: image %s: %s", f.Seed, f.Image, f.Reason)
}

const defaultMaxSteps = 200_000

// oracleWindowSize is the (deliberately small) telemetry window used by
// the per-machine window samplers, so most fuzz cases exercise several
// rollovers including mid-handler ones.
const oracleWindowSize = 512

// BuildImages assembles the program and produces the five image
// variants. The selective image leaves a deterministic, seed-dependent
// subset of procedures native (never main, so something is always
// compressed).
func BuildImages(p *synth.RandProgram, opts Options) ([]*program.Image, error) {
	native, err := p.Build()
	if err != nil {
		return nil, fmt.Errorf("assemble: %w", err)
	}
	images := []*program.Image{native}
	for _, o := range []core.Options{
		{Scheme: program.SchemeDict, ShadowRF: opts.ShadowRF},
		{Scheme: program.SchemeCodePack, ShadowRF: opts.ShadowRF},
		{Scheme: program.SchemeDict, ShadowRF: opts.ShadowRF,
			NativeProcs: selectNative(native, p.Spec.Seed)},
		{Scheme: program.Scheme("lz"), ShadowRF: opts.ShadowRF},
	} {
		res, err := core.Compress(native, o)
		if err != nil {
			return nil, fmt.Errorf("compress %s: %w", o.Scheme, err)
		}
		images = append(images, res.Image)
	}
	return images, nil
}

// selectNative picks roughly a third of the procedures (never main) to
// stay native, deterministically in the seed and stable under shrinking:
// whether a procedure is selected depends only on its own name and the
// seed, not on which other procedures still exist.
func selectNative(im *program.Image, seed int64) map[string]bool {
	sel := make(map[string]bool)
	for _, pr := range im.Procs {
		if pr.Name == "main" {
			continue
		}
		h := uint64(seed) * 0x9E3779B97F4A7C15
		for _, b := range []byte(pr.Name) {
			h = (h ^ uint64(b)) * 0x100000001B3
		}
		if h%3 == 0 {
			sel[pr.Name] = true
		}
	}
	return sel
}

// Check runs one differential case. It returns:
//
//	(nil, nil)      — the five images are equivalent and all oracles hold;
//	(failure, nil)  — a confirmed finding;
//	(nil, err)      — infrastructure problem (build failed, the native
//	                  reference faulted, or the step budget ran out):
//	                  the case is inconclusive and should be skipped.
func Check(p *synth.RandProgram, opts Options) (*Failure, error) {
	images, err := BuildImages(p, opts)
	if err != nil {
		return nil, err
	}
	if opts.Mutation != nil {
		if err := opts.Mutation.Apply(images, opts); err != nil {
			return nil, fmt.Errorf("mutation %s: %w", opts.Mutation.Name, err)
		}
	}
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = defaultMaxSteps
	}
	cfg := cpu.DefaultConfig()
	// Every fuzz case also audits the predecoded-dispatch cache: each
	// fetched entry is re-decoded from the backing I-cache word and any
	// mismatch (a stale entry surviving a swic overwrite) fails the run.
	cfg.PredecodeCheck = true
	if opts.ICacheBytes > 0 {
		cfg.ICache.SizeBytes = opts.ICacheBytes
	}
	if opts.Mutation != nil && opts.Mutation.Machine != nil {
		opts.Mutation.Machine(&cfg)
	}
	orc := newOracle(images)
	// Each machine also carries a telemetry window sampler with a small
	// window, so every fuzz case additionally proves the windowed-
	// telemetry sum invariant (component-wise window sums == whole-run
	// stats) on all five image kinds — and a spatial-attribution
	// recorder, proving the per-line/per-procedure sum invariant on the
	// same runs (the "where" axis of the same decomposition).
	samplers := make([]*telemetry.WindowSampler, len(images))
	recorders := make([]*profile.Recorder, len(images))
	results, runErr := verify.LockstepMulti(images, verify.MultiConfig{
		CPU:      cfg,
		MaxSteps: maxSteps,
		OnCommit: orc.onCommit,
		Attach: func(img int, c *cpu.CPU) {
			s := telemetry.NewWindowSampler(oracleWindowSize)
			s.Attach(c)
			samplers[img] = s
			r := profile.NewRecorder(images[img])
			r.Attach(c)
			recorders[img] = r
		},
	})
	fail := func(img int, reason string) (*Failure, error) {
		kind := ""
		if img >= 0 && img < len(ImageKinds) {
			kind = ImageKinds[img]
		}
		return &Failure{Seed: p.Spec.Seed, Image: kind, Reason: reason, Program: p}, nil
	}
	// The swic-content oracle fires during the run and is the most
	// precise signal: report it first even if the run also diverged.
	if orc.err != nil {
		return fail(orc.errImg, orc.err.Error())
	}
	if runErr != nil {
		switch e := runErr.(type) {
		case *verify.MultiDivergence:
			return fail(e.Img, runErr.Error())
		case *verify.MachineError:
			if e.Img == 0 {
				return nil, fmt.Errorf("reference machine faulted: %w", runErr)
			}
			return fail(e.Img, runErr.Error())
		default:
			if strings.Contains(runErr.Error(), "budget") {
				return nil, fmt.Errorf("inconclusive: %w", runErr)
			}
			return nil, runErr
		}
	}
	if reason, img := orc.checkFinal(results, cfg); reason != "" {
		return fail(img, reason)
	}
	if reason, img := checkWindows(samplers); reason != "" {
		return fail(img, reason)
	}
	if reason, img := checkProfiles(recorders); reason != "" {
		return fail(img, reason)
	}
	if reason, img := checkReplay(images, cfg); reason != "" {
		return fail(img, reason)
	}
	if opts.Functional {
		if reason, img := checkFunctional(images, results, opts); reason != "" {
			return fail(img, reason)
		}
	}
	return nil, nil
}
