package main

import (
	"math"
	"sort"
)

// summary describes one metric's per-rep samples: the reported value
// and the spread around it.
type summary struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Stat   string  `json:"stat"` // how Value was taken: best, median or once
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	// Spread is the run-to-run spread compare holds against a bound:
	// (Q3-Q1)/median, for a best-of value too, since a slow stretch of
	// the host moves every rep of a run, not only the best.
	Spread float64 `json:"spread"`
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// mean returns the arithmetic mean of xs; 0 for no samples.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	if len(xs) == 0 {
		return 0
	}
	return sum / float64(len(xs))
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for no samples.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartiles of xs by the same
// rule as Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so the spreads this benchmark reports match the
// ones computed over its results by that function.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// relIQR returns (Q3-Q1)/median, the run-to-run spread as a share of
// the median; 0 when the median is 0.
func relIQR(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// bestOf returns the best sample: the smallest when lower is better,
// the largest otherwise.
func bestOf(xs []float64, lower bool) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	if lower {
		return s[0]
	}
	return s[len(s)-1]
}

// summarize reduces samples to a summary. stat selects the reported
// value: "best" (lower tells which direction wins) or "median".
func summarize(xs []float64, unit, stat string, lower bool) summary {
	q1, q3 := quartiles(xs)
	s := summary{Unit: unit, Stat: stat, Median: median(xs), Q1: q1, Q3: q3, N: len(xs), Spread: relIQR(xs)}
	s.Value = s.Median
	if stat == "best" {
		s.Value = bestOf(xs, lower)
	}
	return s
}
