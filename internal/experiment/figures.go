package experiment

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/program"
	"repro/internal/selective"
)

// Fig4CacheSizes are the I-cache sizes Figure 4 sweeps.
var Fig4CacheSizes = []int{4, 16, 64}

// Fig4Point is one scatter point of Figure 4: a benchmark at one cache
// size under one decompressor configuration.
type Fig4Point struct {
	Bench     string
	CacheKB   int
	Scheme    program.Scheme
	ShadowRF  bool
	MissRatio float64 // native-code I-cache miss ratio at this cache size
	Slowdown  float64
}

// Figure4 sweeps cache sizes and decompressor configurations for the
// given scheme ((a) dictionary or (b) CodePack in the paper).
func (s *Suite) Figure4(scheme program.Scheme) ([]Fig4Point, error) {
	var pts []Fig4Point
	for _, p := range s.Benchmarks() {
		st, err := s.state(p)
		if err != nil {
			return nil, err
		}
		for _, kb := range Fig4CacheSizes {
			nat, err := s.nativeRun(st, kb)
			if err != nil {
				return nil, err
			}
			for _, rf := range []bool{false, true} {
				o, _, err := s.compressedRun(st, core.Options{Scheme: scheme, ShadowRF: rf}, kb)
				if err != nil {
					return nil, err
				}
				pts = append(pts, Fig4Point{
					Bench: p.Name, CacheKB: kb, Scheme: scheme, ShadowRF: rf,
					MissRatio: missRatio(nat), Slowdown: slowdown(o, nat),
				})
			}
		}
	}
	return pts, nil
}

// FormatFigure4 renders the scatter series, one line per point, sorted by
// configuration then miss ratio (the paper's x-axis).
func FormatFigure4(title string, pts []Fig4Point) string {
	sorted := append([]Fig4Point(nil), pts...)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.ShadowRF != b.ShadowRF {
			return !a.ShadowRF
		}
		if a.CacheKB != b.CacheKB {
			return a.CacheKB < b.CacheKB
		}
		return a.MissRatio < b.MissRatio
	})
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4%s: I-cache miss ratio vs execution time\n", title)
	fmt.Fprintf(&b, "  %-8s %6s %-12s %9s %9s\n", "series", "cache", "bench", "missratio", "slowdown")
	for _, p := range sorted {
		series := string(p.Scheme)
		if p.ShadowRF {
			series += "+RF"
		}
		fmt.Fprintf(&b, "  %-8s %4dKB %-12s %8.3f%% %9.2f\n",
			series, p.CacheKB, p.Bench, p.MissRatio*100, p.Slowdown)
	}
	return b.String()
}

// Fig5Point is one point of a Figure 5 size/speed curve.
type Fig5Point struct {
	Bench     string
	Scheme    program.Scheme
	Policy    selective.Policy
	Threshold float64 // selection coverage target; 0 = fully compressed
	Ratio     float64 // compression ratio (x-axis); 1.0 at fully native
	Slowdown  float64 // y-axis; 1.0 at fully native
	Native    int     // procedures kept native
}

// Fig5Curve is one benchmark's curve for one scheme and policy, ordered
// from fully compressed (left) to fully native (right) as in the paper.
type Fig5Curve struct {
	Bench  string
	Scheme program.Scheme
	Policy selective.Policy
	Points []Fig5Point
}

// Figure5 produces the selective-compression curves for every benchmark
// under both schemes and both selection policies (paper §5.3). The
// profile (execution counts and misses) is collected from the original
// native program at the baseline 16KB cache, exactly as the paper does —
// including its caveat that re-layout changes the miss behaviour.
func (s *Suite) Figure5() ([]Fig5Curve, error) {
	var curves []Fig5Curve
	for _, p := range s.Benchmarks() {
		st, err := s.state(p)
		if err != nil {
			return nil, err
		}
		nat, err := s.nativeRun(st, 16)
		if err != nil {
			return nil, err
		}
		for _, scheme := range []program.Scheme{program.SchemeDict, program.SchemeCodePack} {
			for _, policy := range []selective.Policy{selective.ByExecution, selective.ByMisses} {
				curve := Fig5Curve{Bench: p.Name, Scheme: scheme, Policy: policy}
				thresholds := append([]float64{0}, selective.Thresholds...)
				for _, th := range thresholds {
					sel := selective.Select(nat.prof, policy, th)
					if len(sel) >= len(st.image.Procs) {
						continue // nothing left to compress
					}
					o, res, err := s.compressedRun(st,
						core.Options{Scheme: scheme, ShadowRF: true, NativeProcs: sel}, 16)
					if err != nil {
						return nil, err
					}
					curve.Points = append(curve.Points, Fig5Point{
						Bench: p.Name, Scheme: scheme, Policy: policy, Threshold: th,
						Ratio: res.Ratio(), Slowdown: slowdown(o, nat), Native: len(sel),
					})
				}
				// Right endpoint: fully native code.
				curve.Points = append(curve.Points, Fig5Point{
					Bench: p.Name, Scheme: scheme, Policy: policy, Threshold: 1,
					Ratio: 1, Slowdown: 1, Native: len(st.image.Procs),
				})
				sort.Slice(curve.Points, func(i, j int) bool {
					return curve.Points[i].Ratio < curve.Points[j].Ratio
				})
				curves = append(curves, curve)
			}
		}
	}
	return curves, nil
}

// FormatFigure5 renders the curves grouped per benchmark.
func FormatFigure5(curves []Fig5Curve) string {
	var b strings.Builder
	b.WriteString("Figure 5: Selective compression size/speed curves (16KB I-cache)\n")
	last := ""
	for _, c := range curves {
		if c.Bench != last {
			fmt.Fprintf(&b, " %s\n", c.Bench)
			last = c.Bench
		}
		series := fmt.Sprintf("%s/%s", schemeShort(c.Scheme), c.Policy)
		fmt.Fprintf(&b, "  %-10s", series)
		for _, p := range c.Points {
			fmt.Fprintf(&b, "  (%.1f%%, %.2f)", p.Ratio*100, p.Slowdown)
		}
		b.WriteString("\n")
	}
	return b.String()
}

func schemeShort(s program.Scheme) string {
	if s == program.SchemeCodePack {
		return "CP"
	}
	return "D"
}
