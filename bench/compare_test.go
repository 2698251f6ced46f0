package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// syntheticReport builds a report with every declared end-to-end metric
// on every declared workload: five reps each, 2% apart.
func syntheticReport(spec *benchSpec) *report {
	rep := &report{}
	for _, w := range spec.Workloads {
		r := &result{Workload: w.Name, Correct: true, Raw: map[string][]float64{}, EndToEnd: map[string]summary{}}
		for _, d := range spec.EndToEnd {
			xs := []float64{100, 102, 104, 106, 108}
			r.Raw[d.Name] = xs
			r.EndToEnd[d.Name] = summarize(xs, d.Unit, "best", d.Better == "lower")
		}
		rep.Workloads = append(rep.Workloads, r)
	}
	return rep
}

// scaled copies rep with metric on workload multiplied by f.
func scaled(t *testing.T, rep *report, workload, metric string, f float64) *report {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var cp report
	if err := json.Unmarshal(data, &cp); err != nil {
		t.Fatal(err)
	}
	for _, r := range cp.Workloads {
		if r.Workload != workload {
			continue
		}
		s := r.EndToEnd[metric]
		s.Value *= f
		r.EndToEnd[metric] = s
		for i := range r.Raw[metric] {
			r.Raw[metric][i] *= f
		}
	}
	return &cp
}

func writeReport(t *testing.T, dir, name string, rep *report) string {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func repoSpec(t *testing.T) *benchSpec {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestCompareMustFail is the gate's self-test: a copy of a result with
// exact_mips cut by one and a half times its bound on one workload must
// fail the comparison, naming that workload and metric, while a cut of
// half the bound and the unchanged copy pass.
func TestCompareMustFail(t *testing.T) {
	spec := repoSpec(t)
	var bound float64
	for _, d := range spec.EndToEnd {
		if d.Name == "exact_mips" {
			bound = d.Bound
		}
	}
	base := syntheticReport(spec)
	victim := spec.Workloads[len(spec.Workloads)-1].Name
	slow := scaled(t, base, victim, "exact_mips", 1-1.5*bound)
	noise := scaled(t, base, victim, "exact_mips", 1-0.5*bound)

	dir := t.TempDir()
	a := writeReport(t, dir, "a.json", base)
	b := writeReport(t, dir, "b.json", slow)
	c := writeReport(t, dir, "c.json", noise)
	for _, other := range []string{a, c} {
		if code := runCompare([]string{a, other}, io.Discard); code != 0 {
			t.Errorf("comparing with %s exited %d, want 0", filepath.Base(other), code)
		}
	}
	if code := runCompare([]string{a, b}, io.Discard); code != 1 {
		t.Errorf("exact_mips x %.2f on %s exited %d, want 1", 1-1.5*bound, victim, code)
	}
	var regressions []verdict
	for _, v := range compareReports(spec, base, slow) {
		if v.Verdict != "ok" {
			regressions = append(regressions, v)
		}
	}
	if len(regressions) != 1 || regressions[0].Workload != victim || regressions[0].Metric != "exact_mips" ||
		regressions[0].Verdict != "regression" {
		t.Errorf("verdicts other than ok: %+v; want one exact_mips regression on %s", regressions, victim)
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricDecl{{Name: "m", Unit: "s", Better: "lower", Bound: 0.1}}}
	mk := func(xs ...float64) *report {
		return &report{Workloads: []*result{{
			Workload: "w", Correct: true, Attempted: 10, Raw: map[string][]float64{"m": xs},
			EndToEnd: map[string]summary{"m": summarize(xs, "s", "best", true)},
		}}}
	}
	with := func(rep *report, edit func(*result)) *report {
		edit(rep.Workloads[0])
		return rep
	}
	cases := []struct {
		a, b *report
		want string
		n    int // verdicts expected: one per workload on either side
	}{
		{mk(10, 10.1, 10.2), mk(10.5, 10.6, 10.7), "ok", 1},
		{mk(10, 10.1, 10.2), mk(12, 12.1, 12.2), "regression", 1},
		{mk(10, 10.1, 10.2), mk(8, 8.1, 8.2), "better", 1},
		{mk(10, 15, 16), mk(12, 12.1, 12.2), "unresolved", 1},
		{mk(10, 15, 16), mk(5, 8, 9), "better", 1},
		{mk(10, 10.1), &report{Workloads: []*result{{Workload: "w", Correct: true}}}, "missing", 1},
		// Every rep of b failed: an empty summary must not read as a gain.
		{mk(10, 10.1), with(mk(), func(r *result) { r.Correct, r.Failed = false, 3 }), "missing", 1},
		// A lower time means nothing when b's outputs were wrong.
		{mk(10, 10.1), with(mk(5, 5.1), func(r *result) { r.Correct, r.Failed = false, 1 }), "incorrect", 1},
		{with(mk(10, 10.1), func(r *result) { r.Failed = 1 }), with(mk(5, 5.1), func(r *result) { r.Failed = 2 }), "incorrect", 1},
		// A workload on one side only is missing, whichever side.
		{mk(10, 10.1), with(mk(10, 10.1), func(r *result) { r.Workload = "v" }), "missing", 2},
	}
	for i, c := range cases {
		vs := compareReports(spec, c.a, c.b)
		if len(vs) != c.n {
			t.Errorf("case %d: %d verdicts %+v, want %d", i, len(vs), vs, c.n)
		}
		for _, v := range vs {
			if v.Verdict != c.want {
				t.Errorf("case %d: verdicts %+v, want %s", i, vs, c.want)
				break
			}
		}
	}
}
