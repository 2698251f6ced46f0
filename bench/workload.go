package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	rtd "repro"
	"repro/internal/fastpath"
	"repro/internal/program"
	"repro/internal/synth"
)

// workload is one kind of program the benchmark runs through every
// execution mode, plus the paper reproduction restricted to that
// program. The three contrast the layers software decompression
// stresses: none of it, a write-beside-read mix, and a handler-bound
// run.
type workload struct {
	Name   string
	Bench  string     // synth stand-in
	Scale  float64    // dynamic length multiplier
	Scheme rtd.Scheme // "" runs the native program
	Why    string
}

var workloads = []workload{
	{
		Name: "native-go", Bench: "go", Scale: 0.625,
		Why: "go stand-in, no decompression: every miss is a hardware fill, so the I-cache, bus and allocator layers carry the run",
	},
	{
		Name: "dict-go", Bench: "go", Scale: 0.625, Scheme: rtd.SchemeDict,
		Why: "the paper's headline dict+RF scheme on go: half the instructions run in the handler and its swic writes share the I-cache with fetch",
	},
	{
		Name: "codepack-cc1", Bench: "cc1", Scale: 0.125, Scheme: rtd.SchemeCodePack,
		Why: "codepack+RF on cc1, the largest program: 92% handler instructions fetched from handler RAM, so execute and branch prediction dominate",
	},
}

// reproduceScale is the dynamic scale of each workload's slice of the
// paper reproduction. The slice always uses the calibrated stand-in
// (the calibration is the point of reproducing the paper), so it does
// not depend on the seed.
const reproduceScale = 0.05

// Timed CLI runs, in the order the first rep runs them; odd reps run
// them in reverse so no mode always follows the same neighbour. The
// reproduction is one CLI run where the other modes make one per
// program, so it runs at both ends of a rep: twice the samples.
var modes = []string{"reproduce", "exact", "funct", "sampled", "observed", "reproduce"}

const (
	childTimeout = 120 * time.Second
	maxDriftPct  = 1.0 // the fast tier's sampled-CPI accuracy contract
)

// plan is how one benchmark invocation measures.
type plan struct {
	Seed    int64
	Seconds float64 // length of the timed loop
	Trace   bool
	// ScaleMul multiplies every dynamic scale, reproduction included
	// (1 = as declared; the smoke test shrinks it).
	ScaleMul float64
	// Programs is how many of the seed's programsPerRun programs the run
	// measures (the smoke test measures one).
	Programs int
}

// env is the benchmark's working area inside the checkout.
type env struct {
	bin  string // the CLIs under test
	work string // scratch images and reports, removed at exit
	out  string // artifact directory ("" = keep none)
	tr   *tracer
}

// findRoot walks up from the working directory to the checkout root,
// the first directory holding BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		up := filepath.Dir(dir)
		if up == dir {
			return "", errors.New("no BENCHMARK.json in the working directory or above it")
		}
		dir = up
	}
}

// newEnv builds simrun, ccprof and experiments from the checkout and
// the benchmark's pace program (the builds are never timed), and
// creates the scratch directory.
func newEnv(out string) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	bin := filepath.Join(build, "bin")
	for _, b := range []struct {
		dir  string
		pkgs []string
	}{
		{root, []string{"./cmd/simrun", "./cmd/ccprof", "./cmd/experiments"}},
		{filepath.Join(root, "bench"), []string{"./pace"}},
	} {
		cmd := exec.Command("go", append([]string{"build", "-buildvcs=false", "-o", bin + string(os.PathSeparator)}, b.pkgs...)...)
		cmd.Dir = b.dir
		if msg, err := cmd.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("building %v: %v\n%s", b.pkgs, err, msg)
		}
	}
	work, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	if out != "" {
		if err := os.MkdirAll(out, 0o755); err != nil {
			os.RemoveAll(work)
			return nil, err
		}
	}
	return &env{bin: bin, work: work, out: out, tr: newTracer()}, nil
}

func (e *env) close() { os.RemoveAll(e.work) }

// result is everything one workload run measured.
type result struct {
	Workload  string               `json:"workload"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Reps      int                  `json:"reps"`
	Failures  []string             `json:"failures,omitempty"`
	Raw       map[string][]float64 `json:"raw"` // per-rep samples behind EndToEnd, and every pace run's time
	EndToEnd  map[string]summary   `json:"end_to_end"`
	PerLayer  map[string]summary   `json:"per_layer,omitempty"`
}

// op counts one attempted operation and whether it failed; msgs are
// the failure reasons.
func (r *result) op(msgs ...string) {
	r.Attempted++
	if len(msgs) > 0 {
		r.Failed++
		r.Failures = append(r.Failures, msgs...)
	}
}

// simReport is the part of a simrun/ccprof JSON report the benchmark
// checks and reports.
type simReport struct {
	Cycles          uint64  `json:"cycles"`
	Instrs          uint64  `json:"instrs"`
	HandlerInstrs   uint64  `json:"handler_instrs"`
	CPI             float64 `json:"cpi"`
	Exceptions      uint64  `json:"exceptions"`
	IMissNative     uint64  `json:"imiss_native"`
	IMissCompressed uint64  `json:"imiss_compressed"`
	ExcCyclesMax    uint64  `json:"exc_cycles_max"`
	FetchStalls     uint64  `json:"fetch_stalls"`
	LoadStalls      uint64  `json:"load_stalls"`
	LoadUseStalls   uint64  `json:"load_use_stalls"`
	ExitCode        int32   `json:"exit_code"`
}

// statsReport projects in-process Stats onto the report fields, so the
// traced pass can compare them with the CLI's report.
func statsReport(s rtd.Stats) simReport {
	return simReport{
		Cycles: s.Cycles, Instrs: s.Instrs, HandlerInstrs: s.HandlerInstrs,
		CPI: float64(s.Cycles) / float64(s.Instrs), Exceptions: s.Exceptions,
		IMissNative: s.IMissNative, IMissCompressed: s.IMissCompressed, ExcCyclesMax: s.ExcCyclesMax,
		FetchStalls: s.FetchStalls, LoadStalls: s.LoadStalls, LoadUseStalls: s.LoadUseStalls,
	}
}

type functReport struct {
	Instrs   uint64 `json:"instrs"`
	ExitCode int32  `json:"exit_code"`
}

// programsPerRun is how many generated programs one workload run
// measures. Programs generated from different seeds differ in host
// cost per instruction (by 4-8% between seeds, measured interleaved),
// so every timed sample covers several and reports their combined
// throughput.
const programsPerRun = 4

// prog is one generated program of a run and its first-rep outputs.
type prog struct {
	profile synth.Profile // seeded and scaled
	img     string        // the saved image every CLI runs
	native  *rtd.Image    // the last set-up's native program
	image   *rtd.Image    // the last set-up's image (compressed unless native)
	ref     string        // the native program's output: every mode must print it

	exact    *simReport // first exact report
	exactOut []byte     // first exact stdout: later reps must match it byte for byte
}

// work is the exact run's user + handler instructions, in millions.
// Every mode's throughput divides this same work, so ratios between
// modes are wall-clock speed-ups.
func (pr *prog) work() float64 {
	return float64(pr.exact.Instrs+pr.exact.HandlerInstrs) / 1e6
}

// runState carries one workload run's programs and checked outputs.
type runState struct {
	w        workload
	p        plan
	progs    []*prog
	reproOut []byte  // first reproduce stdout
	driftPct float64 // worst sampled-CPI drift seen
	dictErr  float64
	steps    []step // the timed loop's steps, in order
	blocks   int    // blocks of steps so far
	res      *result
}

// step is one timed step of the loop: a set-up or one CLI run. The
// steps of one block (a set-up, or one mode's runs over the programs
// in one rep) make one sample of that mode.
type step struct {
	mode  string // "setup" or one of modes
	block int
	wall  float64 // seconds, as measured
	work  float64 // the program's exact work, Minstr (0 for set-up and reproduce)
	pace  int     // index in Raw["pace_s"] of the pace run right before it
}

// measure runs one workload's set-up, its native reference runs and
// the timed closed loop of CLI runs for p.Seconds.
func (e *env) measure(w workload, p plan) *runState {
	base, ok := synth.ByName(w.Bench)
	if !ok {
		panic("bench: unknown stand-in " + w.Bench)
	}
	res := &result{Workload: w.Name, Raw: map[string][]float64{}, EndToEnd: map[string]summary{}}
	st := &runState{w: w, p: p, res: res}
	for j := 0; j < p.Programs; j++ {
		prof := base
		prof.Seed += p.Seed*programsPerRun + int64(j)
		st.progs = append(st.progs, &prog{
			profile: prof.Scale(w.Scale * p.ScaleMul),
			img:     filepath.Join(e.work, fmt.Sprintf("%s.%d.img", w.Name, j)),
		})
	}
	if err := e.reference(st); err != nil {
		res.op("native reference run: " + err.Error())
		return st
	}
	// Reps start while the next one, at the mean rep length so far, is
	// expected to end within p.Seconds; the second rep always runs, so
	// every check across reps is made. A traced run reports only the
	// per-layer metrics, which need no more than those two reps.
	start := time.Now()
	for rep := 0; ; rep++ {
		elapsed := time.Since(start).Seconds()
		if rep >= 2 && (p.Trace || elapsed*float64(rep+1)/float64(rep) > p.Seconds) {
			break
		}
		e.rep(st, rep)
		res.Reps++
	}
	st.summarize()
	return st
}

// setup builds, compresses and saves every program of the run: the
// work every CLI run starts from.
func (st *runState) setup() (float64, error) {
	start := time.Now()
	for _, pr := range st.progs {
		if _, _, err := st.build(pr, untraced); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Seconds(), nil
}

// spanFunc runs fn, timing it as the span name when tracing.
type spanFunc func(name string, fn func() error) (float64, error)

func untraced(_ string, fn func() error) (float64, error) { return 0, fn() }

// build generates pr's program, compresses it when the workload has a
// scheme, and saves it. It returns the seconds span measured for the
// image (generate + compress) and for the save.
func (st *runState) build(pr *prog, span spanFunc) (image, save float64, err error) {
	var native *rtd.Image
	image, err = span("synth.build", func() (err error) {
		native, err = synth.Build(pr.profile)
		return err
	})
	im := native
	if err == nil && st.w.Scheme != "" {
		var d float64
		d, err = span("core.compress", func() error {
			r, err := rtd.Compress(native, rtd.Options{Scheme: st.w.Scheme, ShadowRF: true})
			if err == nil {
				im = r.Image
			}
			return err
		})
		image += d
	}
	if err != nil {
		return 0, 0, err
	}
	save, err = span("program.save", func() error { return program.SaveFile(pr.img, im) })
	pr.native, pr.image = native, im
	return image, save, err
}

// reference runs each native program once, untimed, through simrun's
// detailed engine; its output is what every mode of every rep must
// print.
func (e *env) reference(st *runState) error {
	if _, err := st.setup(); err != nil {
		return err
	}
	for _, pr := range st.progs {
		native := pr.img + ".native"
		if err := program.SaveFile(native, pr.native); err != nil {
			return err
		}
		r, err := e.child("simrun", "-json", native)
		if err != nil {
			return err
		}
		var rep simReport
		if err := json.Unmarshal(r.stdout, &rep); err != nil {
			return fmt.Errorf("report: %v", err)
		}
		if rep.ExitCode != 0 {
			return fmt.Errorf("%s exited %d", native, rep.ExitCode)
		}
		pr.ref = string(r.stderr)
	}
	return nil
}

// childRun is one finished CLI process.
type childRun struct {
	wall   float64 // seconds from fork to exit
	rssKB  int64
	stdout []byte
	stderr []byte
}

// child runs a CLI to completion in the scratch directory. CLIs run
// with GOMAXPROCS=1: on a 2-vCPU host a second P lets the garbage
// collector's workers contend with neighbouring tenants, which made
// the same reproduction's wall time spread four times as widely.
//
// A child's ru_maxrss starts from this process's peak resident set
// when it execs, so this process first resets its peak to its current
// resident set (Linux's clear_refs); otherwise the benchmark's own
// peak would mask a lighter CLI's.
func (e *env) child(tool string, args ...string) (childRun, error) {
	// Without the reset (another OS, or no /proc) ru_maxrss is still a
	// valid upper bound, so a failed write changes nothing else.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(e.bin, tool), args...)
	cmd.Dir = e.work
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	r := childRun{wall: time.Since(start).Seconds(), stdout: stdout.Bytes(), stderr: stderr.Bytes()}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			r.rssKB = ru.Maxrss
		}
	}
	if err != nil {
		msg := strings.TrimSpace(stderr.String())
		if len(msg) > 300 {
			msg = msg[len(msg)-300:]
		}
		return r, fmt.Errorf("%s %s: %v: %s", tool, strings.Join(args, " "), err, msg)
	}
	return r, nil
}

// paceRef is the reference host speed, as the pace program's wall time
// in seconds: about its time on a quiet host (the fastest tenth of its
// 4,000 runs in one sweep on a shared 2-vCPU VM took 23–28 ms). A step
// measured while pace takes paceRef is reported as measured.
const paceRef = 0.025

// paceWindow is how many pace runs on each side of a step's own are
// averaged with it into the host speed the step is scaled by: one pace
// run is noisy, and the host's speed holds for seconds, about as long
// as seven steps take.
const paceWindow = 3

// pace runs the pace program (bench/pace) and records its wall time in
// res. On a shared host the simulator's speed follows its neighbours'
// load from one second to the next, and whole runs land in slow
// stretches; the pace program's time follows the same load (log-
// correlation 0.57–0.92 with the CLI run after it) and does not change
// from one commit to another.
func (e *env) pace(res *result) error {
	r, err := e.child("pace")
	if err == nil {
		res.Raw["pace_s"] = append(res.Raw["pace_s"], r.wall)
	}
	return err
}

// cliArgs returns the command line a mode runs on pr (nil for the
// reproduction, which runs the calibrated stand-in).
func (st *runState) cliArgs(mode string, pr *prog) (string, []string) {
	switch mode {
	case "exact":
		return "simrun", []string{"-json", pr.img}
	case "funct":
		return "simrun", []string{"-mode", "functional", "-json", pr.img}
	case "sampled":
		return "simrun", []string{"-mode", "sampled", "-json", pr.img}
	case "observed":
		return "ccprof", []string{"-format", "json", "-o", pr.img + ".report.json",
			"-profile", pr.img + ".profile.json", pr.img}
	default: // reproduce
		return "experiments", []string{"-compare", "-table2", "-table3", "-fig4", "-fig5",
			"-only", st.w.Bench, "-scale", strconv.FormatFloat(reproduceScale*st.p.ScaleMul, 'g', -1, 64),
			"-workers", "1"}
	}
}

var dictErrRE = regexp.MustCompile(`worst \|Δ\|: dictionary ([0-9.]+)`)

// rep is one closed-loop repetition: set-up, then every mode's CLI runs
// one after another, each checked as soon as it exits. Each timed step
// runs right after the pace program and is recorded for summarize; a
// mode's steps count only if all of the rep's runs of it passed.
func (e *env) rep(st *runState, rep int) {
	res := st.res
	var setup float64
	err := e.pace(res)
	if err == nil {
		setup, err = st.setup()
	}
	if err != nil {
		res.op("set-up: " + err.Error())
		return
	}
	res.op()
	st.steps = append(st.steps, step{mode: "setup", block: st.blocks, wall: setup, pace: len(res.Raw["pace_s"]) - 1})
	st.blocks++

	order := append([]string(nil), modes...)
	if rep%2 == 1 {
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	}
	for _, m := range order {
		progs := st.progs
		if m == "reproduce" {
			progs = []*prog{nil}
		}
		var steps []step
		ok := true
		for _, pr := range progs {
			tool, args := st.cliArgs(m, pr)
			var r childRun
			err := e.pace(res)
			if err == nil {
				r, err = e.child(tool, args...)
			}
			if r.rssKB > 0 {
				res.Raw[m+"_rss_mb"] = append(res.Raw[m+"_rss_mb"], float64(r.rssKB)/1024)
			}
			fails := st.check(m, pr, r, err)
			res.op(fails...)
			if len(fails) > 0 {
				ok = false
				continue
			}
			t := step{mode: m, block: st.blocks, wall: r.wall, pace: len(res.Raw["pace_s"]) - 1}
			if pr != nil {
				t.work = pr.work()
			}
			steps = append(steps, t)
		}
		if ok {
			st.steps = append(st.steps, steps...)
			st.blocks++
		}
	}
}

// check verifies one CLI run: it exited cleanly, printed the native
// reference output, and agrees with the program's exact run (or, for
// the reproduction, with the first rep). It returns the failures.
func (st *runState) check(mode string, pr *prog, r childRun, err error) []string {
	var fails []string
	failf := func(format string, args ...any) {
		fails = append(fails, fmt.Sprintf("rep %d %s: ", st.res.Reps, mode)+fmt.Sprintf(format, args...))
	}
	if err != nil {
		failf("%v", err)
		return fails
	}
	if mode == "reproduce" {
		if st.reproOut == nil {
			st.reproOut = r.stdout
		} else if !bytes.Equal(r.stdout, st.reproOut) {
			failf("stdout differs from the first rep's")
		}
		m := dictErrRE.FindSubmatch(r.stdout)
		if m == nil {
			failf("no dictionary |Δ| line in the -compare output")
			return fails
		}
		st.dictErr, _ = strconv.ParseFloat(string(m[1]), 64)
		return fails
	}
	if string(r.stderr) != pr.ref {
		failf("%s: program output differs from the native reference run", pr.img)
	}
	if mode != "exact" && pr.exact == nil {
		failf("%s: no exact run to check against", pr.img)
		return fails
	}
	switch mode {
	case "exact":
		var rep simReport
		if err := json.Unmarshal(r.stdout, &rep); err != nil {
			failf("report: %v", err)
			return fails
		}
		if pr.exact == nil {
			pr.exact, pr.exactOut = &rep, r.stdout
		} else if !bytes.Equal(r.stdout, pr.exactOut) {
			failf("%s: exact report differs from the first rep's", pr.img)
		}
		if rep.ExitCode != 0 || rep.Instrs == 0 {
			failf("%s: exit code %d after %d instructions", pr.img, rep.ExitCode, rep.Instrs)
		}
	case "funct":
		var rep functReport
		if err := json.Unmarshal(r.stdout, &rep); err != nil {
			failf("report: %v", err)
			return fails
		}
		if rep.Instrs != pr.exact.Instrs || rep.ExitCode != 0 {
			failf("%s: %d user instructions, exit %d; exact ran %d", pr.img, rep.Instrs, rep.ExitCode, pr.exact.Instrs)
		}
	case "sampled":
		var rep fastpath.SampleResult
		if err := json.Unmarshal(r.stdout, &rep); err != nil {
			failf("report: %v", err)
			return fails
		}
		if rep.TotalInstrs != pr.exact.Instrs || rep.ExitCode != 0 {
			failf("%s: %d user instructions, exit %d; exact ran %d", pr.img, rep.TotalInstrs, rep.ExitCode, pr.exact.Instrs)
		}
		drift := 100 * math.Abs(rep.CPI-pr.exact.CPI) / pr.exact.CPI
		st.driftPct = math.Max(st.driftPct, drift)
		if drift > maxDriftPct {
			failf("%s: sampled CPI %.4f drifts %.3f%% from exact %.4f (limit %.1f%%)", pr.img, rep.CPI, drift, pr.exact.CPI, maxDriftPct)
		}
	case "observed":
		data, err := os.ReadFile(pr.img + ".report.json")
		var rep simReport
		if err == nil {
			err = json.Unmarshal(data, &rep)
		}
		if err != nil {
			failf("report: %v", err)
			return fails
		}
		if rep.Cycles != pr.exact.Cycles || rep.Instrs != pr.exact.Instrs {
			failf("%s: %d cycles over %d instructions; exact ran %d over %d", pr.img, rep.Cycles, rep.Instrs, pr.exact.Cycles, pr.exact.Instrs)
		}
	}
	return fails
}

// summarize reduces the timed loop's samples to the end-to-end metrics.
//
// Each step's wall time is first scaled to the reference host speed:
// times paceRef over the mean time of the pace runs around it. A mode's
// per-rep sample is its steps' combined scaled time (_s) and, for the
// CLI modes, the programs' exact work over that time (_mips); _wall_s
// keeps the sum as measured.
func (st *runState) summarize() {
	res := st.res
	paces := res.Raw["pace_s"]
	var wall, scaled, work float64
	for i, t := range st.steps {
		lo, hi := max(0, t.pace-paceWindow), min(len(paces), t.pace+paceWindow+1)
		wall += t.wall
		scaled += t.wall * paceRef / mean(paces[lo:hi])
		work += t.work
		if i+1 < len(st.steps) && st.steps[i+1].block == t.block {
			continue
		}
		res.Raw[t.mode+"_wall_s"] = append(res.Raw[t.mode+"_wall_s"], wall)
		res.Raw[t.mode+"_s"] = append(res.Raw[t.mode+"_s"], scaled)
		if work > 0 {
			res.Raw[t.mode+"_mips"] = append(res.Raw[t.mode+"_mips"], work/scaled)
		}
		wall, scaled, work = 0, 0, 0
	}
	res.EndToEnd["setup_s"] = summarize(res.Raw["setup_s"], "s", "median", true)
	for _, m := range []string{"exact", "funct", "sampled", "observed"} {
		res.EndToEnd[m+"_mips"] = summarize(res.Raw[m+"_mips"], "Minstr/s", "median", false)
	}
	res.EndToEnd["reproduce_s"] = summarize(res.Raw["reproduce_s"], "s", "median", true)
	// Peak memory is the heaviest mode's typical footprint: the median
	// of its per-process peaks, which garbage-collection timing moves
	// far less than the maximum over every process would.
	var heaviest []float64
	for _, m := range modes {
		if xs := res.Raw[m+"_rss_mb"]; median(xs) > median(heaviest) {
			heaviest = xs
		}
	}
	res.Raw["peak_rss_mb"] = heaviest
	res.EndToEnd["peak_rss_mb"] = summarize(heaviest, "MiB", "median", true)
	if res.Reps > 0 && len(res.Raw["exact_mips"]) == 0 {
		res.op("no exact run succeeded")
	}
}
