package telemetry

import (
	"strings"
	"testing"
)

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram("t", "cycles")
	for _, v := range []uint64{0, 1, 2, 3, 4, 7, 8, 1 << 40} {
		h.Observe(v)
	}
	if h.Count != 8 || h.Min != 0 || h.Max != 1<<40 {
		t.Fatalf("count/min/max = %d/%d/%d", h.Count, h.Min, h.Max)
	}
	if h.Sum != 0+1+2+3+4+7+8+1<<40 {
		t.Fatalf("sum = %d", h.Sum)
	}
	// bucket 0 = {0}, 1 = {1}, 2 = {2,3}, 3 = {4..7}, 4 = {8..15}, 41 = {2^40..}.
	want := map[int]uint64{0: 1, 1: 1, 2: 2, 3: 2, 4: 1, 41: 1}
	for b, n := range want {
		if h.Buckets[b] != n {
			t.Errorf("bucket %d = %d, want %d", b, h.Buckets[b], n)
		}
	}
	for b := range h.Buckets {
		if _, ok := want[b]; !ok && h.Buckets[b] != 0 {
			t.Errorf("unexpected bucket %d = %d", b, h.Buckets[b])
		}
	}
}

func TestBucketRangeRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 2, 5, 31, 32, 1<<20 - 1, 1 << 20} {
		lo, hi := BucketRange(bucketOf(v))
		if v < lo || v >= hi {
			t.Errorf("v=%d fell outside its bucket [%d,%d)", v, lo, hi)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram("t", "cycles")
	for i := 0; i < 99; i++ {
		h.Observe(10) // bucket 4: [8,16)
	}
	h.Observe(1000) // bucket 10: [512,1024)
	if p50 := h.Quantile(0.50); p50 != 15 {
		t.Errorf("p50 = %d, want 15 (upper edge of [8,16))", p50)
	}
	// p100 lands in the tail bucket but must clamp to the observed max.
	if p100 := h.Quantile(1.0); p100 != 1000 {
		t.Errorf("p100 = %d, want clamped max 1000", p100)
	}
	if h.Quantile(0.0) == 0 {
		t.Error("q=0 on a non-empty histogram should still report a bucket edge")
	}
	var empty Histogram
	if empty.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	// Zero observations: all digests are zero, rendering doesn't panic.
	var empty Histogram
	if empty.Quantile(0) != 0 || empty.Quantile(1) != 0 || empty.Mean() != 0 {
		t.Error("empty histogram digests should all be 0")
	}
	if s := empty.Summary(); s.Count != 0 || len(s.Buckets) != 0 {
		t.Errorf("empty summary %+v", s)
	}
	_ = empty.String()

	// Observe(0): lands in bucket 0 ([0,1)), min stays 0, quantiles
	// report the bucket's inclusive upper edge 0.
	z := NewHistogram("z", "cycles")
	z.Observe(0)
	if z.Buckets[0] != 1 || z.Min != 0 || z.Max != 0 {
		t.Fatalf("Observe(0): bucket0=%d min=%d max=%d", z.Buckets[0], z.Min, z.Max)
	}
	if lo, hi := BucketRange(0); lo != 0 || hi != 1 {
		t.Fatalf("BucketRange(0) = [%d,%d)", lo, hi)
	}
	if q := z.Quantile(0.5); q != 0 {
		t.Fatalf("Quantile(0.5) after Observe(0) = %d, want 0", q)
	}

	// Top bucket saturation: MaxUint64 lands in the last bucket (64),
	// whose upper edge 2^64 wraps to 0 — Quantile must still clamp to
	// the observed max instead of reporting the wrapped edge.
	const maxU64 = ^uint64(0)
	top := NewHistogram("top", "cycles")
	top.Observe(maxU64)
	top.Observe(maxU64 - 1)
	if top.Buckets[histBuckets-1] != 2 {
		t.Fatalf("top bucket holds %d, want 2", top.Buckets[histBuckets-1])
	}
	if lo, hi := BucketRange(histBuckets - 1); lo != 1<<63 || hi != 0 {
		t.Fatalf("BucketRange(64) = [%d,%d), want [2^63, wrapped 0)", lo, hi)
	}
	if q := top.Quantile(0.99); q != maxU64 {
		t.Fatalf("saturated quantile = %d, want clamped max %d", q, maxU64)
	}
	if q := top.Quantile(0.01); q != maxU64 {
		t.Fatalf("saturated low quantile = %d, want clamped max %d", q, maxU64)
	}
}

func TestHistogramSummaryAndString(t *testing.T) {
	h := NewHistogram("latency", "cycles")
	h.Observe(3)
	h.Observe(100)
	s := h.Summary()
	if s.Count != 2 || s.Min != 3 || s.Max != 100 {
		t.Fatalf("summary %+v", s)
	}
	if len(s.Buckets) != 2 || s.Buckets[0][0] != 2 || s.Buckets[1][0] != 64 {
		t.Fatalf("buckets %v", s.Buckets)
	}
	out := h.String()
	if !strings.Contains(out, "latency (cycles): 2 samples") {
		t.Errorf("header missing:\n%s", out)
	}
	if !strings.Contains(out, "#") {
		t.Errorf("no bars rendered:\n%s", out)
	}
}

func TestSetCountersHottest(t *testing.T) {
	s := NewSetCounters("I-cache", 8)
	s.CacheMiss(3, false)
	s.CacheMiss(3, true)
	s.CacheMiss(5, true)
	s.CacheMiss(1, false)
	s.CacheEvict(3)
	if s.TotalMisses() != 4 {
		t.Fatalf("total = %d", s.TotalMisses())
	}
	hot := s.Hottest(8)
	// Set 3 leads; sets 1 and 5 tie at one miss and must come in index order.
	if len(hot) != 3 || hot[0].Set != 3 || hot[1].Set != 1 || hot[2].Set != 5 {
		t.Fatalf("hottest = %+v", hot)
	}
	if hot[0].Miss != 2 || hot[0].Conflict != 1 || hot[0].Evict != 1 {
		t.Fatalf("set 3 counters = %+v", hot[0])
	}
	if got := s.Hottest(1); len(got) != 1 || got[0].Set != 3 {
		t.Fatalf("hottest(1) = %+v", got)
	}
	if !strings.Contains(s.String(), "8 sets, 4 misses") {
		t.Errorf("string:\n%s", s.String())
	}
}
