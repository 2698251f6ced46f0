// Command ccbench is the performance-trajectory front end: it runs the
// perfwatch workload registry (paper benchmarks × compression schemes ×
// cache configurations), appends each workload's simulated metrics to a
// schema-versioned BENCH_<host>.json trajectory file, and compares or
// gates trajectories so a change in simulated behaviour is a measured
// claim instead of an assertion. Host time is measured by the
// repository benchmark (bash bench/run.sh), not here.
//
//	ccbench list                         print the workload registry
//	ccbench run                          run all workloads, append to BENCH_<hostname>.json
//	ccbench run -scale 1.0               full-length runs
//	ccbench run -host ci -o BENCH_ci.json -only go/dict/16K
//	ccbench run -sampled                 also measure the fast tier: sampled CPI
//	                                     drift vs exact + a functional run
//	ccbench compare old.json new.json    compare the latest entries of two files
//	ccbench compare BENCH_myhost.json    compare the last two entries of one file
//	ccbench gate                         re-run the registry at the baseline's
//	                                     scale and fail on any simulated change
//	ccbench gate -perturb 1.05           self-test: inject +5% cycles, must fail
//	ccbench gate -sampled                also fail if sampled CPI drifts >1% from
//	                                     exact on any registry workload
//	ccbench gate -sampled -perturb-sampled 1.05
//	                                     self-test: inflate the sampled estimate
//	                                     by 5%, the drift gate must fail
//
// Progress goes to stderr through obs.Reporter, detail as structured
// slog lines.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/perfwatch"
)

func main() {
	log := obs.NewLogger("ccbench", nil)
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:], log)
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "gate":
		err = cmdGate(os.Args[2:], log)
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "ccbench: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		log.Error("ccbench failed", "err", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: ccbench <command> [flags]

commands:
  list      print the workload registry
  run       measure every workload and append a trajectory entry
  compare   compare two trajectory files (or the last two entries of one)
  gate      re-measure and fail on regressions vs a baseline trajectory

run 'ccbench <command> -h' for the command's flags
`)
}

// defaultScale mirrors bench_test.go: RTD_BENCH_SCALE or 0.2.
func defaultScale() float64 {
	if v := os.Getenv("RTD_BENCH_SCALE"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
			return f
		}
	}
	return 0.2
}

func cmdList(args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	fmt.Printf("%-24s %3s  %s\n", "workload", "ver", "description")
	for _, w := range perfwatch.Registry() {
		fmt.Printf("%-24s %3d  %s\n", w.Name, w.Version, w.Desc())
	}
	return nil
}

func splitOnly(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// measure runs the registry (or the only subset) at scale and returns
// one fingerprinted entry, reporting progress on stderr.
func measure(name string, scale float64, only string, workers int, sampled bool, log *slog.Logger) (perfwatch.Entry, error) {
	fp := perfwatch.NewFingerprint(scale)
	fp.GitSHA = obs.GitSHA()
	rep := obs.NewReporter(name, os.Stderr, log)
	r := perfwatch.NewRunner(scale)
	r.Log = log
	r.Progress = func(done, total int, s perfwatch.Sample) { rep.Step(done, total, s.Workload) }
	r.Workers = workers
	r.Fast = sampled
	entry, err := r.Run(fp, splitOnly(only))
	rep.Done()
	return entry, err
}

func cmdRun(args []string, log *slog.Logger) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var (
		scale   = fs.Float64("scale", defaultScale(), "dynamic-length multiplier (RTD_BENCH_SCALE)")
		host    = fs.String("host", "", "host label for the trajectory file (default: the file's label, or the hostname for a new file)")
		out     = fs.String("o", "", "trajectory file (default: BENCH_<host>.json)")
		only    = fs.String("only", "", "comma-separated workload names (default: all)")
		keep    = fs.Int("keep", 0, "keep at most N entries in the file (0 = unlimited)")
		workers = fs.Int("workers", 1, "worker goroutines for the workload fan-out (<=0 = GOMAXPROCS)")
		sampled = fs.Bool("sampled", false, "also measure the fast tier (sampled CPI + a functional run) per workload")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	label := *host
	if label == "" {
		if h, err := os.Hostname(); err == nil {
			label = h
		} else {
			label = "unknown"
		}
	}
	path := *out
	if path == "" {
		path = perfwatch.FileName(label)
	}
	_, statErr := os.Stat(path)
	traj, err := perfwatch.Load(path)
	if err != nil {
		return err
	}
	// An existing file keeps its label unless -host names one.
	if *host != "" || os.IsNotExist(statErr) {
		traj.Host = label
	}

	start := time.Now()
	log.Info("run", "scale", *scale, "file", path, "host", traj.Host)
	entry, err := measure("ccbench run", *scale, *only, *workers, *sampled, log)
	if err != nil {
		return err
	}
	if *sampled {
		printFast(entry)
	}
	if err := traj.Append(path, entry, *keep); err != nil {
		return err
	}
	log.Info("appended", "file", path, "entries", len(traj.Entries), "samples", len(entry.Samples))

	// Sidecar manifest: what this trajectory entry was measured with.
	man := obs.New("ccbench")
	man.SetConfig("scale", fmt.Sprint(*scale))
	man.SetConfig("workers", fmt.Sprint(*workers))
	man.SetConfig("host_label", traj.Host)
	man.Finish(start)
	if err := man.Write(obs.PathFor(path)); err != nil {
		return err
	}

	// When the file already held an entry, show the trajectory step.
	if len(traj.Entries) >= 2 {
		c := perfwatch.CompareEntries(traj.Entries[len(traj.Entries)-2], entry)
		c.Format(os.Stdout, false)
		fmt.Println(c.Summary())
	}
	return nil
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	verbose := fs.Bool("v", false, "print per-field simulated diffs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var old, new perfwatch.Entry
	switch fs.NArg() {
	case 1:
		traj, err := perfwatch.Load(fs.Arg(0))
		if err != nil {
			return err
		}
		if len(traj.Entries) < 2 {
			return fmt.Errorf("%s has %d entries; need 2 to compare", fs.Arg(0), len(traj.Entries))
		}
		old, new = traj.Entries[len(traj.Entries)-2], traj.Entries[len(traj.Entries)-1]
	case 2:
		var err error
		if old, err = latestEntry(fs.Arg(0)); err != nil {
			return err
		}
		if new, err = latestEntry(fs.Arg(1)); err != nil {
			return err
		}
	default:
		return fmt.Errorf("usage: ccbench compare [-v] <old.json> [new.json]")
	}
	c := perfwatch.CompareEntries(old, new)
	c.Format(os.Stdout, *verbose)
	fmt.Println(c.Summary())
	return nil
}

func latestEntry(path string) (perfwatch.Entry, error) {
	traj, err := perfwatch.Load(path)
	if err != nil {
		return perfwatch.Entry{}, err
	}
	e, ok := traj.Latest()
	if !ok {
		return perfwatch.Entry{}, fmt.Errorf("%s has no entries", path)
	}
	return e, nil
}

func cmdGate(args []string, log *slog.Logger) error {
	fs := flag.NewFlagSet("gate", flag.ExitOnError)
	var (
		baseline = fs.String("baseline", "BENCH_ci.json", "baseline trajectory file")
		only     = fs.String("only", "", "comma-separated workload names (default: all)")
		allowSim = fs.Bool("allow-sim", false, "permit simulated-metric changes (report, don't fail)")
		perturb  = fs.Float64("perturb", 0, "self-test: multiply measured simulated cycles by this factor")
		sampled  = fs.Bool("sampled", false, "also gate the fast tier: sampled CPI must stay within -sampled-drift of exact")
		sDrift   = fs.Float64("sampled-drift", 1.0, "sampled-axis drift limit in percent (with -sampled)")
		sPerturb = fs.Float64("perturb-sampled", 0, "self-test: multiply the sampled cycle estimates by this factor (implies -sampled)")
		workers  = fs.Int("workers", 1, "worker goroutines for the workload fan-out (<=0 = GOMAXPROCS)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sPerturb != 0 && *sPerturb != 1 {
		*sampled = true
	}
	base, err := latestEntry(*baseline)
	if err != nil {
		return fmt.Errorf("loading baseline: %v", err)
	}
	scale := base.Fingerprint.Scale
	log.Info("gate", "baseline", *baseline, "baseline_time", base.Time,
		"baseline_sha", base.Fingerprint.GitSHA, "scale", scale)

	entry, err := measure("ccbench gate", scale, *only, *workers, *sampled, log)
	if err != nil {
		return err
	}
	if *perturb != 0 && *perturb != 1 {
		log.Warn("self-test perturbation active", "factor", *perturb)
		perfwatch.PerturbSim(&entry, *perturb)
	}
	if *sPerturb != 0 && *sPerturb != 1 {
		log.Warn("sampled self-test perturbation active", "factor", *sPerturb)
		perfwatch.PerturbSampled(&entry, *sPerturb)
	}

	c := perfwatch.CompareEntries(base, entry)
	c.Format(os.Stdout, true)
	fmt.Println(c.Summary())
	violations := perfwatch.GatePolicy{AllowSimChange: *allowSim}.Check(c)
	if *sampled {
		printFast(entry)
		violations = append(violations, perfwatch.CheckFast(entry, *sDrift)...)
	}
	if len(violations) > 0 {
		for _, v := range violations {
			log.Error("gate violation", "workload", v.Workload, "reason", v.Reason)
		}
		return fmt.Errorf("%d gate violation(s); if intentional, re-baseline with: ccbench run -scale %g -o %s",
			len(violations), scale, *baseline)
	}
	log.Info("gate passed", "workloads", len(c.Deltas))
	return nil
}

// printFast prints the fast-tier table of one entry: per-workload
// sampled accuracy.
func printFast(e perfwatch.Entry) {
	fmt.Printf("%-24s %10s %8s %9s %9s\n",
		"fast tier", "sampled", "drift", "windows", "bursts")
	for _, s := range e.Samples {
		if s.Fast == nil {
			fmt.Printf("%-24s %10s\n", s.Workload, "(none)")
			continue
		}
		drift, _ := s.SampledDrift()
		fmt.Printf("%-24s %10.4f %+7.3f%% %9d %9d\n",
			s.Workload, s.Fast.SampledCPI, drift, s.Fast.Windows, s.Fast.Bursts)
	}
}
