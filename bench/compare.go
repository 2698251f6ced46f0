package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads: run
// length, workloads and metrics, with each end-to-end metric's
// regression bound.
type benchSpec struct {
	RunSeconds int          `json:"run_seconds"`
	Workloads  []namedWhy   `json:"workloads"`
	EndToEnd   []metricDecl `json:"end_to_end"`
	PerLayer   []metricDecl `json:"per_layer"`
}

type namedWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end metrics only
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &s, nil
}

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &r, nil
}

// verdict is one (workload, metric) comparison.
type verdict struct {
	Workload, Metric string
	A, B             float64
	Worse            float64 // share by which B is worse than A (negative = better)
	Spread           float64 // the wider of the two sides' spreads
	Bound            float64
	Verdict          string // ok, better, unresolved, regression, incorrect or missing
}

// failing reports whether a verdict fails the comparison.
func (v verdict) failing() bool {
	return v.Verdict == "regression" || v.Verdict == "incorrect" || v.Verdict == "missing"
}

// compareReports holds report b against report a, metric by metric,
// under the spec's bounds, over every workload either side ran. A
// workload that b ran incorrectly, or with more failed operations than
// a, is incorrect on every metric: no gain counts there. A change
// beyond the bound is a regression unless either side's spread is
// itself wider than the bound: then it is unresolved, or better if
// every rep of b beats every rep of a.
func compareReports(spec *benchSpec, a, b *report) []verdict {
	byName := func(rep *report) map[string]*result {
		m := map[string]*result{}
		for _, r := range rep.Workloads {
			m[r.Workload] = r
		}
		return m
	}
	as, bs := byName(a), byName(b)
	var names []string
	for _, rep := range []*report{a, b} {
		for _, r := range rep.Workloads {
			if !slices.Contains(names, r.Workload) {
				names = append(names, r.Workload)
			}
		}
	}
	var out []verdict
	for _, name := range names {
		ra, rb := as[name], bs[name]
		for _, d := range spec.EndToEnd {
			v := verdict{Workload: name, Metric: d.Name, Bound: d.Bound}
			var sa, sb summary
			okA, okB := ra != nil, rb != nil
			if okA {
				sa, okA = ra.EndToEnd[d.Name]
			}
			if okB {
				sb, okB = rb.EndToEnd[d.Name]
			}
			v.A, v.B = sa.Value, sb.Value
			switch {
			case !okA || !okB || sa.Value == 0 || sb.Value == 0:
				v.Verdict = "missing"
			case !rb.Correct || rb.Failed > ra.Failed:
				v.Verdict = "incorrect"
			}
			if v.Verdict != "" {
				out = append(out, v)
				continue
			}
			lower := d.Better == "lower"
			v.Worse = (sb.Value - sa.Value) / sa.Value
			if !lower {
				v.Worse = -v.Worse
			}
			v.Spread = max(sa.Spread, sb.Spread)
			switch {
			case v.Spread > d.Bound && allBetter(ra.Raw[d.Name], rb.Raw[d.Name], lower):
				v.Verdict = "better"
			case v.Spread > d.Bound:
				v.Verdict = "unresolved"
			case v.Worse > d.Bound:
				v.Verdict = "regression"
			case v.Worse < -d.Bound:
				v.Verdict = "better"
			default:
				v.Verdict = "ok"
			}
			out = append(out, v)
		}
	}
	return out
}

// allBetter reports whether every sample of b beats every sample of a.
func allBetter(a, b []float64, lower bool) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	if lower {
		return bestOf(b, false) < bestOf(a, true)
	}
	return bestOf(b, true) > bestOf(a, false)
}

// runCompare is `bench compare A.json B.json`: under the checkout's
// BENCHMARK.json it prints one row per (workload, end-to-end metric)
// and exits 1 when any is a regression, incorrect or missing.
func runCompare(args []string, w io.Writer) int {
	if len(args) != 2 || strings.HasPrefix(args[0], "-") || strings.HasPrefix(args[1], "-") {
		fmt.Fprintln(os.Stderr, "usage: bench compare A/results.json B/results.json")
		return 2
	}
	root, err := findRoot()
	var spec *benchSpec
	if err == nil {
		spec, err = loadSpec(filepath.Join(root, "BENCHMARK.json"))
	}
	var a, b *report
	if err == nil {
		a, err = loadReport(args[0])
	}
	if err == nil {
		b, err = loadReport(args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 1
	}
	code := 0
	fmt.Fprintf(w, "%-13s %-14s %12s %12s %8s %8s %6s  %s\n", "workload", "metric", "A", "B", "worse", "spread", "bound", "verdict")
	for _, v := range compareReports(spec, a, b) {
		fmt.Fprintf(w, "%-13s %-14s %12.5g %12.5g %7.1f%% %7.1f%% %5.0f%%  %s\n",
			v.Workload, v.Metric, v.A, v.B, 100*v.Worse, 100*v.Spread, 100*v.Bound, v.Verdict)
		if v.failing() {
			fmt.Fprintf(os.Stderr, "bench compare: %s on %s: %s\n", v.Verdict, v.Workload, v.Metric)
			code = 1
		}
	}
	return code
}
