package rtd_test

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
	"testing"

	rtd "repro"
	"repro/internal/compress/codepack"
	"repro/internal/compress/dict"
	"repro/internal/compress/lzrw1"
	"repro/internal/cpu"
	"repro/internal/experiment"
	"repro/internal/perfwatch"
	"repro/internal/profile"
	"repro/internal/program"
	"repro/internal/telemetry"
)

// benchScale shortens the benchmark runs so `go test -bench=.` completes
// quickly; regenerate the full-length tables with `go run
// ./cmd/experiments -all`. Override with RTD_BENCH_SCALE=1.0.
func benchScale() float64 {
	if v := os.Getenv("RTD_BENCH_SCALE"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
			return f
		}
	}
	return 0.2
}

var printOnce sync.Map

func printRows(b *testing.B, key, text string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Printf("\n%s\n", text)
	}
	_ = b
}

// BenchmarkTable2 regenerates the paper's Table 2: program sizes,
// dictionary/CodePack/LZRW1 compression ratios and 16KB miss ratios.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiment.NewSuite(benchScale())
		rows, err := s.Table2()
		if err != nil {
			b.Fatal(err)
		}
		printRows(b, "t2", experiment.FormatTable2(rows))
	}
}

// BenchmarkTable3 regenerates the paper's Table 3: slowdown of the D,
// D+RF, CP and CP+RF configurations relative to native code.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiment.NewSuite(benchScale())
		rows, err := s.Table3()
		if err != nil {
			b.Fatal(err)
		}
		printRows(b, "t3", experiment.FormatTable3(rows))
	}
}

// BenchmarkFigure4Dict regenerates Figure 4(a): miss ratio vs execution
// time for dictionary-compressed programs at 4/16/64KB caches.
func BenchmarkFigure4Dict(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiment.NewSuite(benchScale())
		pts, err := s.Figure4(rtd.SchemeDict)
		if err != nil {
			b.Fatal(err)
		}
		printRows(b, "f4a", experiment.FormatFigure4("(a) dictionary", pts))
	}
}

// BenchmarkFigure4CodePack regenerates Figure 4(b) for CodePack.
func BenchmarkFigure4CodePack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiment.NewSuite(benchScale())
		pts, err := s.Figure4(rtd.SchemeCodePack)
		if err != nil {
			b.Fatal(err)
		}
		printRows(b, "f4b", experiment.FormatFigure4("(b) CodePack", pts))
	}
}

// BenchmarkFigure5 regenerates Figure 5: the selective-compression
// size/speed curves under both policies and both schemes.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiment.NewSuite(benchScale())
		curves, err := s.Figure5()
		if err != nil {
			b.Fatal(err)
		}
		printRows(b, "f5", experiment.FormatFigure5(curves))
	}
}

// BenchmarkAblations runs the design-choice sweeps from DESIGN.md.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiment.NewSuite(benchScale())
		out, err := s.Ablations()
		if err != nil {
			b.Fatal(err)
		}
		printRows(b, "abl", out)
	}
}

// BenchmarkWorkloads runs every perfwatch registry workload as a
// sub-benchmark — the same workloads `ccbench run` records to
// BENCH_*.json, so `go test -bench Workloads` and the trajectory files
// measure the same thing. Simulated cycles are reported as a metric;
// compare wall times across trees with benchstat, and simulated
// metrics exactly with `ccbench compare`.
func BenchmarkWorkloads(b *testing.B) {
	for _, w := range perfwatch.Registry() {
		b.Run(w.Name, func(b *testing.B) {
			r := perfwatch.NewRunner(benchScale())
			warm, err := r.RunWorkload(w) // build/compress outside the timing
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := r.RunWorkload(w)
				if err != nil {
					b.Fatal(err)
				}
				if s.Sim.Cycles != warm.Sim.Cycles {
					b.Fatalf("nondeterministic workload: %d vs %d cycles", s.Sim.Cycles, warm.Sim.Cycles)
				}
			}
			b.ReportMetric(float64(warm.Sim.Cycles), "sim-cycles")
			b.ReportMetric(float64(warm.Sim.Instrs+warm.Sim.HandlerInstrs)*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
		})
	}
}

// ---- micro-benchmarks of the individual components ----

func benchText(b *testing.B) []byte {
	b.Helper()
	im, err := rtd.BuildBenchmark("go")
	if err != nil {
		b.Fatal(err)
	}
	return im.Segment(program.SegText).Data
}

// BenchmarkDictCompress measures the dictionary compressor's throughput.
func BenchmarkDictCompress(b *testing.B) {
	text := benchText(b)
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dict.Compress(text, dict.Index16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodePackCompress measures the CodePack encoder's throughput.
func BenchmarkCodePackCompress(b *testing.B) {
	text := benchText(b)
	text = text[:len(text)&^63]
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codepack.Compress(text); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLZRW1Compress measures the LZRW1 compressor's throughput.
func BenchmarkLZRW1Compress(b *testing.B) {
	text := benchText(b)
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lzrw1.Compress(text)
	}
}

// BenchmarkSimulator measures simulated instructions per second on a
// native benchmark run (the simulator's own speed, not the target's).
func BenchmarkSimulator(b *testing.B) {
	im, err := rtd.BuildBenchmarkScaled("pegwit", 0.2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		out, err := rtd.Run(im, rtd.DefaultMachine())
		if err != nil {
			b.Fatal(err)
		}
		instrs += out.Stats.Instrs
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkDecompressionPath measures end-to-end simulation speed with
// the dictionary decompressor active (exceptions + handler execution).
func BenchmarkDecompressionPath(b *testing.B) {
	im, err := rtd.BuildBenchmarkScaled("go", 0.1)
	if err != nil {
		b.Fatal(err)
	}
	res, err := rtd.Compress(im, rtd.Options{Scheme: rtd.SchemeDict, ShadowRF: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rtd.Run(res.Image, rtd.DefaultMachine()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTelemetryOverhead is the overhead guard for the telemetry
// layer: Off runs the simulator exactly as the seed did (no collector,
// hooks nil — the CPI stack's array adds are the only always-on cost),
// On attaches the full collector, which installs no commit tracer and
// no branch hook, so the detailed loop stays untraced and the gap
// between Off and On is the price of the fill, exception, cache and bus
// hooks. Compare the two with benchstat. Windowed and Attributed add the
// ledgers of rtd.WindowedRun and of ccprof on top of On, and Recorded
// adds ccprof's artifact writes to Attributed; a ledger is
// called out only where the attribution key may change (see
// cpu.CPU.OnKey), so their gap over On is paid per key change, not per
// commit.
func BenchmarkTelemetryOverhead(b *testing.B) {
	im, err := rtd.BuildBenchmarkScaled("go", 0.1)
	if err != nil {
		b.Fatal(err)
	}
	res, err := rtd.Compress(im, rtd.Options{Scheme: rtd.SchemeDict, ShadowRF: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("off", func(b *testing.B) {
		var instrs uint64
		for i := 0; i < b.N; i++ {
			out, err := rtd.Run(res.Image, rtd.DefaultMachine())
			if err != nil {
				b.Fatal(err)
			}
			instrs += out.Stats.Instrs + out.Stats.HandlerInstrs
		}
		b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
	})
	b.Run("on", func(b *testing.B) {
		var instrs uint64
		for i := 0; i < b.N; i++ {
			out, _, _, err := rtd.InstrumentedRun(res.Image, rtd.DefaultMachine())
			if err != nil {
				b.Fatal(err)
			}
			instrs += out.Stats.Instrs + out.Stats.HandlerInstrs
		}
		b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
	})
	// Windowed adds the time-series sampler (default window size plus
	// the post-run sum-invariant verification) on top of On; the gap
	// between On and Windowed is the sampling overhead, budgeted at <5%.
	b.Run("windowed", func(b *testing.B) {
		var instrs uint64
		for i := 0; i < b.N; i++ {
			out, _, _, err := rtd.WindowedRun(res.Image, rtd.DefaultMachine(), 0)
			if err != nil {
				b.Fatal(err)
			}
			instrs += out.Stats.Instrs + out.Stats.HandlerInstrs
		}
		b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
	})
	// Attributed is ccprof's observed mode: the collector with the window
	// sampler and the per-line/per-procedure recorder sharing one
	// attribution ledger on the CPU's key callouts, plus the Verify,
	// Profile and report every ccprof run pays. Recorded adds what
	// ccprof -format json -profile writes: the JSON report and the
	// profile artifact; its gap over Attributed is the artifact writes.
	observed := func(b *testing.B, write bool) {
		var instrs uint64
		for i := 0; i < b.N; i++ {
			c, err := cpu.New(rtd.DefaultMachine())
			if err != nil {
				b.Fatal(err)
			}
			col := telemetry.New()
			col.Windows = telemetry.NewWindowSampler(0)
			col.Recorder = profile.NewRecorder(res.Image)
			col.Attach(c)
			c.Out = io.Discard
			if err := c.Load(res.Image); err != nil {
				b.Fatal(err)
			}
			if _, err := c.Run(); err != nil {
				b.Fatal(err)
			}
			if err := col.Recorder.Verify(); err != nil {
				b.Fatal(err)
			}
			attr := col.Recorder.Profile()
			rep := telemetry.NewReport(c, col)
			if write {
				rep.SetAttribution(attr)
				if err := rep.WriteJSON(io.Discard); err != nil {
					b.Fatal(err)
				}
				if err := attr.WriteJSON(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
			instrs += c.Stats.Instrs + c.Stats.HandlerInstrs
		}
		b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
	}
	b.Run("attributed", func(b *testing.B) { observed(b, false) })
	b.Run("recorded", func(b *testing.B) { observed(b, true) })
}

// BenchmarkAssembler measures text-assembly throughput on the dictionary
// handler source.
func BenchmarkAssembler(b *testing.B) {
	src, err := rtd.HandlerSource(rtd.SchemeCodePack, false)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rtd.Assemble(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMiniCCompile measures compiler throughput.
func BenchmarkMiniCCompile(b *testing.B) {
	src, err := os.ReadFile("testdata/minic/sortmerge.mc")
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rtd.CompileMiniC(string(src)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthBuild measures benchmark-image generation (cc1, the
// largest stand-in).
func BenchmarkSynthBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := rtd.BuildBenchmark("cc1"); err != nil {
			b.Fatal(err)
		}
	}
}
