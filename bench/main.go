// Command bench is the repository's benchmark: host throughput of the
// simulator's CLIs in every execution mode on three contrasting
// programs, the time to reproduce each program's rows of the paper,
// and (traced) where the host time goes layer by layer.
//
//	bash bench/run.sh --workload dict-go --seed 3 --seconds 35 --trace 0
//	bash bench/run.sh -seed 0 -out results            # every workload
//	bash bench/run.sh -seed 0 -trace 1 -out traced    # per-layer pass
//	bash bench/run.sh compare a/results.json b/results.json
//
// Each workload run sets up its programs, then runs simrun (exact,
// functional, sampled), ccprof and experiments one at a time in a
// closed loop for -seconds, checking every output. The
// last line of standard output is a JSON object: correct, attempted,
// failed, and the end-to-end metrics (-trace 0) or the per-layer
// metrics of the traced pass (-trace 1, which cuts the loop to the two
// reps its checks need). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"

	_ "repro/internal/codec/all"
	"repro/internal/obs"
)

// defaultSeconds is how long one workload's timed loop runs; it equals
// run_seconds in BENCHMARK.json.
const defaultSeconds = 35

// report is results.json: provenance plus every workload's result.
type report struct {
	Manifest  *obs.Manifest `json:"manifest"`
	Workloads []*result     `json:"workloads"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:], os.Stdout))
	}
	var (
		name    = flag.String("workload", "", "run only this workload (default: all)")
		seed    = flag.Int64("seed", 0, "workload seed, added to each program's generator seed (0 = the calibrated programs)")
		seconds = flag.Float64("seconds", defaultSeconds, "length of each workload's timed loop")
		trace   = flag.Int("trace", 0, "1 = cut the timed loop to two reps, then run the traced per-layer pass")
		out     = flag.String("out", "", "write results.json, trace.json and one .pprof per workload and mode here")
	)
	flag.Parse()
	if flag.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		flag.Usage()
		os.Exit(2)
	}
	ws := workloads
	if *name != "" {
		ws = nil
		for _, w := range workloads {
			if w.Name == *name {
				ws = append(ws, w)
			}
		}
		if ws == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
	}
	// The traced pass runs in-process under the same runtime setting as
	// the CLIs (see env.child).
	runtime.GOMAXPROCS(1)
	p := plan{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, ScaleMul: 1, Programs: programsPerRun}
	rep, err := runBenchmark(ws, p, *out, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	ok, err := printReport(os.Stdout, rep, p.Trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// runBenchmark builds the CLIs, runs each workload in turn and, when
// out is set, writes the artifacts there.
func runBenchmark(ws []workload, p plan, out string, log io.Writer) (*report, error) {
	e, err := newEnv(out)
	if err != nil {
		return nil, err
	}
	defer e.close()
	man := obs.New("bench")
	man.SetConfig("nproc", strconv.Itoa(runtime.NumCPU()))
	man.SetConfig("gomaxprocs", strconv.Itoa(runtime.GOMAXPROCS(0)))
	man.SetConfig("seed", strconv.FormatInt(p.Seed, 10))
	man.SetConfig("seconds", strconv.FormatFloat(p.Seconds, 'g', -1, 64))
	man.SetConfig("scale_mul", strconv.FormatFloat(p.ScaleMul, 'g', -1, 64))
	man.SetConfig("programs", strconv.Itoa(p.Programs))
	man.SetConfig("trace", strconv.FormatBool(p.Trace))
	var runs []*runState
	for _, w := range ws {
		fmt.Fprintf(log, "bench: %s (seed %d)\n", w.Name, p.Seed)
		runs = append(runs, e.measure(w, p))
	}
	// Traced passes follow every timed loop: their in-process simulations
	// raise this process's peak RSS, which a child inherits into its
	// ru_maxrss when it is started.
	rep := &report{Manifest: man}
	for _, st := range runs {
		if p.Trace {
			e.tracedPass(st)
		}
		r := st.res
		r.Correct = r.Failed == 0
		man.SetConfig("reps."+r.Workload, strconv.Itoa(r.Reps))
		for _, f := range r.Failures {
			fmt.Fprintf(log, "bench: %s: FAIL %s\n", r.Workload, f)
		}
		rep.Workloads = append(rep.Workloads, r)
	}
	if out == "" {
		return rep, nil
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(out, "results.json"), append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	if p.Trace {
		if err := e.tr.writeChrome(filepath.Join(out, "trace.json")); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// printReport prints every metric by name with its unit, then the
// result line: one JSON object with correct, attempted, failed and the
// metrics — end-to-end ones, or per-layer ones when traced. With more
// than one workload the metric keys are prefixed "workload/". It
// reports whether every workload was correct.
func printReport(w io.Writer, rep *report, traced bool) (bool, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range rep.Workloads {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		for _, set := range []map[string]summary{r.EndToEnd, r.PerLayer} {
			for _, name := range sortedKeys(set) {
				s := set[name]
				fmt.Fprintf(w, "%-13s %-32s %14.6g %-12s %s\n", r.Workload, name, s.Value, s.Unit, describe(s))
			}
		}
		shown := r.EndToEnd
		if traced {
			shown = r.PerLayer
		}
		for name, s := range shown {
			if len(rep.Workloads) > 1 {
				name = r.Workload + "/" + name
			}
			line.Metrics[name] = value{s.Value, s.Unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return false, err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return line.Correct, err
}

// describe says how a metric's value was taken.
func describe(s summary) string {
	if s.Stat == "once" {
		return ""
	}
	return fmt.Sprintf("%s of %d (median %.6g, q1 %.6g, q3 %.6g, spread %.1f%%)",
		s.Stat, s.N, s.Median, s.Q1, s.Q3, 100*s.Spread)
}

func sortedKeys(m map[string]summary) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
