// Package experiment reproduces every table and figure of the paper's
// evaluation (§5): Table 2 (sizes and compression ratios), Table 3
// (slowdowns), Figure 4 (miss ratio vs execution time across cache sizes)
// and Figure 5 (selective-compression size/speed curves), plus Table 1
// (the machine configuration) and the ablations described in DESIGN.md.
package experiment

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/profile"
	"repro/internal/program"
	"repro/internal/session"
	"repro/internal/synth"
)

// Suite runs experiments over the benchmark set, caching built images,
// native baselines, profiles, compressed images and compressed-run
// outcomes so the tables and figures share work: each distinct
// (options, I-cache size) configuration is simulated once per Suite.
//
// A Suite is safe for concurrent use once its exported fields are set:
// the parallel shard runner (internal/parallel) fans workloads across
// goroutines against one shared Suite. Cached artefacts (images,
// compressed results, native baselines, compressed-run outcomes) are
// built at most once under per-benchmark locks and treated as read-only
// afterwards. MeasureRun, the attributed runs and the fast-tier runs are
// never memoised: callers time them, so each call simulates afresh,
// unlocked, on its own CPU instance.
type Suite struct {
	// Scale multiplies every benchmark's dynamic length (1.0 = the
	// calibrated full runs; tests use smaller values).
	Scale float64
	// Only restricts the suite to the named benchmarks (nil = all eight).
	Only []string
	// MaxInstr bounds each simulation; 0 uses a generous default.
	MaxInstr uint64
	// Workers fans per-benchmark work (the table producers) across that
	// many goroutines (<= 0 = GOMAXPROCS, 1 = serial). Row order and
	// simulated values are identical for every worker count.
	Workers int
	// Progress, when set, observes in-order shard completion (done of
	// total) from the table producers. Observability only: it must not
	// affect results.
	Progress func(done, total int)

	mu     sync.Mutex // guards states
	states map[string]*benchState

	sims atomic.Int64 // simulations run by runImage, for tests
}

type benchState struct {
	once sync.Once // builds profile+image
	err  error     // sticky build error

	profile synth.Profile
	image   *program.Image

	mu      sync.Mutex              // guards the memo maps below
	native  map[int]runOutcome      // by I-cache KB
	results map[string]*core.Result // by optionsKey
	runs    map[string]runOutcome   // verified compressed runs, by runKey
}

type runOutcome struct {
	stats    cpu.Stats
	checksum string
	prof     *profile.Profile // the verified attribution of an attributed run
}

// NewSuite returns a Suite with the given dynamic scale.
func NewSuite(scale float64) *Suite {
	return &Suite{Scale: scale, states: make(map[string]*benchState)}
}

// Benchmarks returns the profiles the suite operates on.
func (s *Suite) Benchmarks() []synth.Profile {
	all := synth.Benchmarks()
	if len(s.Only) == 0 {
		return all
	}
	var out []synth.Profile
	for _, name := range s.Only {
		for _, p := range all {
			if p.Name == name {
				out = append(out, p)
			}
		}
	}
	return out
}

func (s *Suite) state(p synth.Profile) (*benchState, error) {
	s.mu.Lock()
	st, ok := s.states[p.Name]
	if !ok {
		st = &benchState{}
		s.states[p.Name] = st
	}
	s.mu.Unlock()
	st.once.Do(func() {
		scaled := p
		if s.Scale > 0 && s.Scale != 1 {
			scaled = p.Scale(s.Scale)
		}
		im, err := synth.Build(scaled)
		if err != nil {
			st.err = fmt.Errorf("experiment: building %s: %v", p.Name, err)
			return
		}
		st.profile = scaled
		st.image = im
		st.native = make(map[int]runOutcome)
		st.results = make(map[string]*core.Result)
		st.runs = make(map[string]runOutcome)
	})
	return st, st.err
}

func (s *Suite) machine(cacheKB int) cpu.Config {
	cfg := cpu.DefaultConfig()
	cfg.ICache.SizeBytes = cacheKB * 1024
	cfg.MaxInstr = s.MaxInstr
	if cfg.MaxInstr == 0 {
		cfg.MaxInstr = 2_000_000_000
	}
	return cfg
}

// runImage executes an image and returns its stats and checksum output.
// An attributed run carries a profile.Recorder, a pure observer, and
// returns its profile once the attribution invariant is verified.
func (s *Suite) runImage(im *program.Image, cacheKB int, attributed bool) (runOutcome, error) {
	s.sims.Add(1)
	var out bytes.Buffer
	var rec *profile.Recorder
	var attach []func(*cpu.CPU)
	if attributed {
		rec = profile.NewRecorder(im)
		attach = append(attach, rec.Attach)
	}
	c, err := session.Machine(s.machine(cacheKB), im, &out, attach...)
	if err != nil {
		return runOutcome{}, err
	}
	code, err := c.Run()
	if err != nil {
		return runOutcome{}, err
	}
	if code != 0 {
		return runOutcome{}, fmt.Errorf("experiment: exit code %d", code)
	}
	o := runOutcome{stats: c.Stats, checksum: out.String()}
	if rec != nil {
		if err := rec.Verify(); err != nil {
			return runOutcome{}, err
		}
		o.prof = rec.Profile()
	}
	return o, nil
}

// trainingKB is the I-cache size of the native run whose profile
// trains selection and placement: the paper's 16KB baseline (§3.3).
const trainingKB = 16

// nativeRun returns (caching) the native baseline at the given cache
// size. The trainingKB baseline is attributed: its profile is the
// training input of selection and placement, read-only once cached.
// The lock is held across the run so concurrent shards asking for the
// same baseline share one simulation instead of racing to duplicate it.
func (s *Suite) nativeRun(st *benchState, cacheKB int) (runOutcome, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if o, ok := st.native[cacheKB]; ok {
		return o, nil
	}
	o, err := s.runImage(st.image, cacheKB, cacheKB == trainingKB)
	if err != nil {
		return runOutcome{}, fmt.Errorf("%s native @%dKB: %v", st.profile.Name, cacheKB, err)
	}
	if o.prof != nil {
		o.prof.SetIdentity(st.profile.Name, "native")
		// Selection and placement read the procedure view and the call
		// edges; the line records would only hold memory for the
		// Suite's life.
		o.prof.Lines = nil
	}
	st.native[cacheKB] = o
	return o, nil
}

// optionsKey names every field of core.Options that changes the
// compression result: two options with one key give the same Result.
func optionsKey(opts core.Options) string {
	return fmt.Sprintf("%s/rf=%v/bits=%d/native=%q/order=%q",
		opts.Scheme, opts.ShadowRF, opts.IndexBits, sortedNames(opts.NativeProcs), opts.Order)
}

// runKey names one compressed run: the options and the I-cache size.
func runKey(opts core.Options, cacheKB int) string {
	return fmt.Sprintf("%s@%dKB", optionsKey(opts), cacheKB)
}

// compressed returns (caching) the compressed image for the options.
// Like nativeRun, the lock is held across the compression so shards
// needing the same image build it once.
func (s *Suite) compressed(st *benchState, opts core.Options) (*core.Result, error) {
	key := optionsKey(opts)
	st.mu.Lock()
	defer st.mu.Unlock()
	if r, ok := st.results[key]; ok {
		return r, nil
	}
	r, err := core.Compress(st.image, opts)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %v", st.profile.Name, opts.Scheme, err)
	}
	st.results[key] = r
	return r, nil
}

func sortedNames(m map[string]bool) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// compressedRun returns (caching) the run of the compressed image at
// the given cache size, verified against the native baseline's checksum:
// every experiment self-checks correctness, and a cached outcome has
// already passed that check. Like nativeRun, the lock is held across
// the run so concurrent shards share one simulation.
func (s *Suite) compressedRun(st *benchState, opts core.Options, cacheKB int) (runOutcome, *core.Result, error) {
	res, err := s.compressed(st, opts)
	if err != nil {
		return runOutcome{}, nil, err
	}
	nat, err := s.nativeRun(st, cacheKB)
	if err != nil {
		return runOutcome{}, nil, err
	}
	key := runKey(opts, cacheKB)
	st.mu.Lock()
	defer st.mu.Unlock()
	if o, ok := st.runs[key]; ok {
		return o, res, nil
	}
	o, err := s.runImage(res.Image, cacheKB, false)
	if err != nil {
		return runOutcome{}, nil, fmt.Errorf("%s %s @%dKB: %v", st.profile.Name, opts.Scheme, cacheKB, err)
	}
	if o.checksum != nat.checksum {
		return runOutcome{}, nil, fmt.Errorf("%s %s @%dKB: checksum %q, native %q",
			st.profile.Name, opts.Scheme, cacheKB, o.checksum, nat.checksum)
	}
	st.runs[key] = o
	return o, res, nil
}

// Slowdown computes compressed/native cycle ratio.
func slowdown(comp, nat runOutcome) float64 {
	return float64(comp.stats.Cycles) / float64(nat.stats.Cycles)
}

// missRatio is non-speculative I-misses per committed instruction, the
// quantity the paper plots (its 1-wide in-order machine makes accesses
// and instructions nearly identical).
func missRatio(o runOutcome) float64 {
	if o.stats.Instrs == 0 {
		return 0
	}
	return float64(o.stats.IMisses()) / float64(o.stats.Instrs)
}
