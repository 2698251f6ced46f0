package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives, since the benchmark's spreads
// are checked with that function.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{5, 1}, 0, 6},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{50, 10, 40, 20, 30}, 15, 45},
		{[]float64{7}, 7, 7},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestMedianAndBest(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if m := median(xs); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if m := median([]float64{3, 9, 1}); m != 3 {
		t.Errorf("odd median = %v, want 3", m)
	}
	if median(nil) != 0 || bestOf(nil, true) != 0 {
		t.Error("empty samples should summarize to 0")
	}
	if b := bestOf(xs, true); b != 1 {
		t.Errorf("best (lower) = %v, want 1", b)
	}
	if b := bestOf(xs, false); b != 4 {
		t.Errorf("best (higher) = %v, want 4", b)
	}
	if xs[0] != 4 {
		t.Error("helpers must not reorder their input")
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 10}
	iqr := (7 - 1.5) / 3.0
	s := summarize(xs, "s", "best", true)
	if s.Value != 1 || s.N != 5 || s.Median != 3 || !near(s.Spread, iqr) {
		t.Errorf("best summary = %+v", s)
	}
	s = summarize(xs, "s", "median", true)
	if s.Value != 3 || !near(s.Spread, iqr) {
		t.Errorf("median summary = %+v", s)
	}
}

// TestPacedSamples checks how timed steps become samples: each step's
// wall time times paceRef over the mean of the pace runs within
// paceWindow of its own, summed over a block into one sample.
func TestPacedSamples(t *testing.T) {
	paces := make([]float64, 20)
	for i := range paces {
		paces[i] = paceRef
	}
	paces[10] = 2 * paceRef // one slow pace run, averaged with six quiet ones
	res := &result{Raw: map[string][]float64{"pace_s": paces}, EndToEnd: map[string]summary{}}
	st := &runState{res: res, steps: []step{
		{mode: "setup", block: 0, wall: 0.1, pace: 0},
		{mode: "exact", block: 1, wall: 1, work: 10, pace: 1},
		{mode: "exact", block: 1, wall: 2, work: 20, pace: 2},
		{mode: "reproduce", block: 2, wall: 0.5, pace: 3},
		{mode: "reproduce", block: 3, wall: 0.5, pace: 10},
	}}
	st.summarize()
	want := map[string][]float64{
		"setup_s":          {0.1},
		"exact_wall_s":     {3},
		"exact_s":          {3},
		"exact_mips":       {10},
		"reproduce_wall_s": {0.5, 0.5},
		"reproduce_s":      {0.5, 0.5 * 7 / 8},
	}
	for key, xs := range want {
		got := res.Raw[key]
		if len(got) != len(xs) {
			t.Errorf("%s = %v, want %v", key, got, xs)
			continue
		}
		for i := range xs {
			if !near(got[i], xs[i]) {
				t.Errorf("%s = %v, want %v", key, got, xs)
			}
		}
	}
	if _, ok := res.Raw["reproduce_mips"]; ok {
		t.Error("the reproduction has no throughput")
	}
	if s := res.EndToEnd["reproduce_s"]; !near(s.Value, (0.5+0.5*7/8)/2) || s.Stat != "median" {
		t.Errorf("reproduce_s summary = %+v", s)
	}
}
