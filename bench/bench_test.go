package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSpec checks BENCHMARK.json against the code: the same workloads
// and run length, names the contract accepts, and regression bounds
// with set-up time given the widest.
func TestSpec(t *testing.T) {
	spec := repoSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the code runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the code %s: %q", i, spec.Workloads[i], w.Name, w.Why)
		}
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, but -seconds defaults to %d", spec.RunSeconds, defaultSeconds)
	}
	seen := map[string]bool{}
	var setupBound, widest float64
	for _, group := range [][]metricDecl{spec.EndToEnd, spec.PerLayer} {
		for _, d := range group {
			if !nameRE.MatchString(d.Name) || len(d.Name) > 64 || seen[d.Name] {
				t.Errorf("metric name %q is malformed or repeated", d.Name)
			}
			seen[d.Name] = true
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: better = %q", d.Name, d.Better)
			}
		}
	}
	for _, w := range spec.Workloads {
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or repeated", w.Name)
		}
		seen[w.Name] = true
	}
	for _, d := range spec.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		widest = max(widest, d.Bound)
		if d.Name == "setup_s" {
			setupBound = d.Bound
		}
	}
	if setupBound == 0 || setupBound < widest {
		t.Errorf("setup_s bound %v, want the widest (%v)", setupBound, widest)
	}
}

// TestSmoke runs every workload at a tiny scale, traced, and checks the
// run is correct and emits exactly the metrics BENCHMARK.json declares,
// with the declared units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLIs")
	}
	spec := repoSpec(t)
	out := t.TempDir()
	start := time.Now()
	rep, err := runBenchmark(workloads, plan{Seed: 1, Trace: true, ScaleMul: 0.1, Programs: 1}, out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("smoke run: %v", time.Since(start))
	for _, r := range rep.Workloads {
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", r.Workload, r.Correct, r.Attempted, r.Failed, r.Failures)
		}
		checkDeclared(t, r.Workload+" end-to-end", spec.EndToEnd, r.EndToEnd)
		checkDeclared(t, r.Workload+" per-layer", spec.PerLayer, r.PerLayer)
	}
	for _, f := range []string{"results.json", "trace.json", "dict-go.exact.pprof", "codepack-cc1.observed.pprof"} {
		if _, err := os.Stat(filepath.Join(out, f)); err != nil {
			t.Errorf("artifact: %v", err)
		}
	}
	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	data, err := os.ReadFile(filepath.Join(out, "trace.json"))
	if err == nil {
		err = json.Unmarshal(data, &trace)
	}
	if err != nil || len(trace.TraceEvents) == 0 {
		t.Errorf("trace.json: %v, %d events", err, len(trace.TraceEvents))
	}
	if _, err := loadReport(filepath.Join(out, "results.json")); err != nil {
		t.Error(err)
	}
}

// checkDeclared fails unless got holds exactly the declared metrics,
// each with its declared unit.
func checkDeclared(t *testing.T, what string, decls []metricDecl, got map[string]summary) {
	t.Helper()
	declared := map[string]string{}
	for _, d := range decls {
		declared[d.Name] = d.Unit
		s, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: declared metric %s not emitted", what, d.Name)
		case s.Unit != d.Unit:
			t.Errorf("%s: %s emitted in %s, declared in %s", what, d.Name, s.Unit, d.Unit)
		}
	}
	var extra []string
	for name := range got {
		if _, ok := declared[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Errorf("%s: emitted but not declared: %v", what, extra)
	}
}
