package telemetry

import (
	"fmt"
	"math/bits"
	"strings"
)

// histBuckets is the number of log2 buckets: bucket 0 counts the value
// 0, bucket b (b >= 1) counts values v with 2^(b-1) <= v < 2^b — i.e.
// bucket index = bits.Len64(v). 64-bit values need at most index 64.
const histBuckets = 65

// Histogram is a log2-bucketed distribution of non-negative integer
// samples (cycle latencies, burst byte counts). Observing is two adds
// and a bits.Len64; rendering reconstructs the shape well enough for
// the order-of-magnitude questions telemetry answers ("are exception
// latencies bimodal?", "how long is the tail?").
type Histogram struct {
	Name    string
	Unit    string // what one sample measures, e.g. "cycles", "bytes"
	Buckets [histBuckets]uint64
	Count   uint64
	Sum     uint64
	Min     uint64
	Max     uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram(name, unit string) *Histogram {
	return &Histogram{Name: name, Unit: unit}
}

// bucketOf returns the bucket index for v.
func bucketOf(v uint64) int { return bits.Len64(v) }

// BucketRange returns the half-open value range [lo, hi) covered by
// bucket b.
func BucketRange(b int) (lo, hi uint64) {
	if b <= 0 {
		return 0, 1
	}
	return 1 << (b - 1), 1 << b
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	h.Buckets[bucketOf(v)]++
	h.Count++
	h.Sum += v
	if h.Count == 1 || v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
}

// Mean returns the average sample (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1): the
// exclusive upper edge of the first bucket whose cumulative count
// reaches q*Count, clamped to Max. Bucket resolution makes this exact
// to within a factor of two, which is the precision log2 buckets buy.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	target := uint64(q * float64(h.Count))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for b := 0; b < histBuckets; b++ {
		cum += h.Buckets[b]
		if cum >= target {
			_, hi := BucketRange(b)
			if hi-1 > h.Max {
				return h.Max
			}
			return hi - 1
		}
	}
	return h.Max
}

// String renders the histogram as an ASCII block chart, one line per
// occupied bucket, widths normalised to the fullest bucket.
func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s): %d samples, mean %.1f, min %d, max %d, p50<=%d, p99<=%d\n",
		h.Name, h.Unit, h.Count, h.Mean(), h.Min, h.Max, h.Quantile(0.50), h.Quantile(0.99))
	if h.Count == 0 {
		return b.String()
	}
	var peak uint64
	lowest, highest := -1, 0
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		if lowest < 0 {
			lowest = i
		}
		highest = i
		if n > peak {
			peak = n
		}
	}
	const width = 40
	for i := lowest; i <= highest; i++ {
		lo, hi := BucketRange(i)
		bar := int(h.Buckets[i] * width / peak)
		if h.Buckets[i] > 0 && bar == 0 {
			bar = 1
		}
		fmt.Fprintf(&b, "  [%8d, %8d) %10d %s\n", lo, hi, h.Buckets[i], strings.Repeat("#", bar))
	}
	return b.String()
}

// HistSummary is the machine-readable digest of a histogram; field
// names are stable (shared by ccprof and simrun -json).
type HistSummary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	Min   uint64  `json:"min"`
	Max   uint64  `json:"max"`
	P50   uint64  `json:"p50"`
	P90   uint64  `json:"p90"`
	P99   uint64  `json:"p99"`
	// Buckets lists the occupied log2 buckets as [lowEdge, count]
	// pairs, lowest first.
	Buckets [][2]uint64 `json:"buckets,omitempty"`
}

// Summary digests the histogram.
func (h *Histogram) Summary() *HistSummary {
	s := &HistSummary{
		Count: h.Count, Mean: h.Mean(), Min: h.Min, Max: h.Max,
		P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99),
	}
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		lo, _ := BucketRange(i)
		s.Buckets = append(s.Buckets, [2]uint64{lo, n})
	}
	return s
}
