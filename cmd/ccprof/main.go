// Command ccprof is the simulator's profiler front end: it runs a
// program (native or compressed) with the full telemetry layer attached
// and reports where every cycle went — the CPI stack, exception-latency
// and fill-latency histograms, per-set cache heatmaps — plus optional
// Chrome trace-event JSON (open in https://ui.perfetto.dev) and folded
// flamegraph stacks (flamegraph.pl / speedscope).
//
//	ccprof prog.img                     profile an image (report to stdout)
//	ccprof prog.s                       assemble + profile
//	ccprof prog.mc                      compile MiniC + profile
//	ccprof -bench pegwit -scale 0.1     profile a synthetic benchmark
//	ccprof -scheme codepack prog.img    compress a native image, then profile
//	ccprof -scheme dict -rf -selective 0.05 prog.img
//	                                    selective compression: hottest 5%
//	                                    (by misses) stays native
//	ccprof -format json -trace trace.json -folded profile.folded prog.img
//	ccprof -mode sampled prog.img       sampled CPI estimate (internal/fastpath)
//	                                    through the same image pipeline:
//	                                    -bench/-scheme/-selective all apply
//	ccprof -heatmap sets.csv prog.img   per-set cache counters as CSV
//	ccprof -timeline tl.csv prog.img    windowed time-series telemetry
//	ccprof -window 1024 -phases prog.img
//	                                    per-window CPI deltas + hottest
//	                                    windows by decompression share
//	ccprof -manifest run.manifest.json prog.img
//	                                    write the run manifest sidecar
//	ccprof -profile prof.json prog.img  write the per-line/per-procedure
//	                                    attribution artifact (.csv = CSV)
//	ccprof -procs -lines prog.img       print the attribution tables
//	ccprof diff old.json new.json       rank the cycle delta between two
//	                                    profile artifacts by procedure
//	                                    and cache line
//	ccprof diff -json old.json new.json
//
// Every run embeds a provenance manifest in the report (schema v3) and
// attaches a profile.Recorder whose attribution invariant — per-line,
// per-procedure and per-window sums bit-identical to the whole-run
// stats — is verified before anything is written; -manifest
// additionally writes the sidecar form with wall-clock timings. The
// simulated program's own output goes to stderr so the report stream
// stays machine-readable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fastpath"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/program"
	"repro/internal/selective"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ccprof: ")
	// Subcommand dispatch happens before flag.Parse so `diff` keeps its
	// own flag set and usage.
	if len(os.Args) > 1 && os.Args[1] == "diff" {
		runDiff(os.Args[2:])
		return
	}
	start := time.Now()
	var (
		bench     = flag.String("bench", "", "profile a synthetic benchmark instead of a file")
		scale     = flag.Float64("scale", 1.0, "dynamic length multiplier for -bench")
		scheme    = flag.String("scheme", "native", "compression scheme: native, dict, codepack, procdict, copy")
		shadowRF  = flag.Bool("rf", false, "give the handler a shadow register file")
		selFrac   = flag.Float64("selective", 0, "fraction of the program (by misses) kept native")
		icacheKB  = flag.Int("icache", 16, "I-cache size in KB")
		maxInstr  = flag.Uint64("max", 2_000_000_000, "instruction budget")
		format    = flag.String("format", "text", "report format: text, csv, json")
		outPath   = flag.String("o", "", "write the report here instead of stdout")
		tracePath = flag.String("trace", "", "write Chrome trace-event JSON here")
		foldPath  = flag.String("folded", "", "write folded flamegraph stacks here")
		heatPath  = flag.String("heatmap", "", "write per-set I/D-cache miss/conflict/evict counters here as CSV")
		timeline  = flag.String("timeline", "", "write windowed time-series telemetry here (.json = JSON, else CSV)")
		window    = flag.Uint64("window", 0, "timeline window size in committed instructions (0 = default)")
		phases    = flag.Bool("phases", false, "print the timeline phase summary to stderr")
		manifest  = flag.String("manifest", "", "write the run manifest sidecar here")
		profPath  = flag.String("profile", "", "write the attribution artifact here (.csv = CSV, else JSON)")
		lines     = flag.Bool("lines", false, "print the per-cache-line attribution table")
		procs     = flag.Bool("procs", false, "print the per-procedure attribution table")
		mode      = flag.String("mode", "exact", "simulation tier: exact (full telemetry), sampled (fast CPI estimate)")
		sWindow   = flag.Uint64("sample-window", 0, "sampled mode: measured detailed window length (0 = default)")
		sIntv     = flag.Uint64("sample-interval", 0, "sampled mode: functional fast-forward length (0 = default)")
	)
	flag.Parse()
	if (*bench == "") == (flag.NArg() != 1) {
		flag.Usage()
		os.Exit(2)
	}
	switch *format {
	case "text", "csv", "json":
	default:
		fmt.Fprintf(os.Stderr, "ccprof: unknown -format %q (want text, csv or json)\n", *format)
		flag.Usage()
		os.Exit(2)
	}
	switch *mode {
	case "exact":
	case "sampled":
		// The sampled tier estimates CPI; everything below needs the
		// detailed engine's full event stream.
		if *tracePath != "" || *foldPath != "" || *heatPath != "" || *timeline != "" ||
			*phases || *profPath != "" || *lines || *procs || *format == "csv" {
			fmt.Fprintln(os.Stderr, "ccprof: -mode sampled supports only -format text/json (no trace/attribution observers)")
			flag.Usage()
			os.Exit(2)
		}
	default:
		fmt.Fprintf(os.Stderr, "ccprof: bad -mode %q (want exact, sampled)\n", *mode)
		flag.Usage()
		os.Exit(2)
	}

	man := obs.New("ccprof")
	man.SetConfig("scheme", *scheme)
	man.SetConfig("icache_kb", fmt.Sprint(*icacheKB))
	man.SetConfig("format", *format)

	im, name, seed, err := loadImage(*bench, *scale, flag.Args())
	if err != nil {
		log.Fatal(err)
	}
	if *bench == "" {
		if err := man.AddInputFile(name, flag.Arg(0)); err != nil {
			log.Fatal(err)
		}
	}

	cfg := cpu.DefaultConfig()
	cfg.ICache.SizeBytes = *icacheKB * 1024
	cfg.MaxInstr = *maxInstr

	// Compress on the fly when asked. A -selective fraction needs a
	// profiled native run first to know which procedures are hot.
	if *scheme != "native" {
		if im.Compress != nil {
			log.Fatalf("%s is already compressed (%s); drop -scheme", name, im.Compress.Scheme)
		}
		opts := core.Options{Scheme: program.Scheme(*scheme), ShadowRF: *shadowRF}
		if *selFrac > 0 {
			prof, err := nativeProfile(im, cfg)
			if err != nil {
				log.Fatalf("selective pre-run: %v", err)
			}
			opts.NativeProcs = selective.Select(prof, selective.ByMisses, *selFrac)
		}
		res, err := core.Compress(im, opts)
		if err != nil {
			log.Fatal(err)
		}
		im = res.Image
	}
	if err := man.AddImage("run-image", im); err != nil {
		log.Fatal(err)
	}

	if *mode == "sampled" {
		sampledRun(im, cfg, fastpath.SampleConfig{Window: *sWindow, Interval: *sIntv},
			name, *format, *outPath)
		if *manifest != "" {
			man.SetConfig("mode", "sampled")
			man.Finish(start)
			if err := man.Write(*manifest); err != nil {
				log.Fatal(err)
			}
		}
		return
	}

	col := telemetry.New()
	col.Windows = telemetry.NewWindowSampler(*window)
	col.Recorder = profile.NewRecorder(im)
	man.SetConfig("window", fmt.Sprint(col.Windows.Size))
	prof, attr, rep, err := profiledRun(im, cfg, col, *foldPath != "")
	if err != nil {
		log.Fatal(err)
	}
	rep.SetIdentity(name, schemeOf(im), seed)
	rep.SetManifest(man)
	attr.SetIdentity(name, schemeOf(im))
	attr.SetManifest(man)
	rep.SetAttribution(attr)

	out := os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		out = f
	}
	switch *format {
	case "text":
		err = rep.WriteText(out, col)
	case "csv":
		err = rep.WriteCSV(out)
	case "json":
		err = rep.WriteJSON(out)
	}
	if err != nil {
		log.Fatal(err)
	}
	if *phases && rep.Timeline != nil {
		fmt.Fprint(os.Stderr, rep.Timeline.Format())
	}
	if *procs {
		fmt.Print(attr.FormatProcs(25))
	}
	if *lines {
		fmt.Print(attr.FormatLines(25))
	}
	if *profPath != "" {
		if err := attr.WriteFile(*profPath); err != nil {
			log.Fatal(err)
		}
	}

	if *tracePath != "" {
		writeFile(*tracePath, func(f *os.File) error { return col.WriteChromeTrace(f, im) })
	}
	if *foldPath != "" {
		writeFile(*foldPath, func(f *os.File) error { return telemetry.WriteFolded(f, prof) })
	}
	if *heatPath != "" {
		writeFile(*heatPath, func(f *os.File) error { return telemetry.WriteHeatmapCSV(f, col.IC, col.DC) })
	}
	if *timeline != "" {
		writeFile(*timeline, func(f *os.File) error {
			if strings.HasSuffix(*timeline, ".json") {
				return telemetry.WriteTimelineJSON(f, col.Windows.Size, col.Windows.Records)
			}
			return telemetry.WriteTimelineCSV(f, col.Windows.Records)
		})
	}
	if *manifest != "" {
		man.Finish(start)
		if err := man.Write(*manifest); err != nil {
			log.Fatal(err)
		}
	}
}

// loadImage resolves the run target: a named synthetic benchmark, an
// assembly or MiniC source file, or a linked image file. The returned
// seed is the synthetic generator seed (0 for file targets), recorded in
// the report's config stanza.
func loadImage(bench string, scale float64, args []string) (*program.Image, string, int64, error) {
	if bench != "" {
		for _, p := range synth.Benchmarks() {
			if p.Name != bench {
				continue
			}
			if scale > 0 && scale != 1 {
				p = p.Scale(scale)
			}
			im, err := synth.Build(p)
			return im, bench, p.Seed, err
		}
		return nil, "", 0, fmt.Errorf("unknown benchmark %q", bench)
	}
	path := args[0]
	name := filepath.Base(path)
	switch {
	case strings.HasSuffix(path, ".s"):
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, "", 0, err
		}
		im, err := asm.Assemble(string(src))
		return im, name, 0, err
	case strings.HasSuffix(path, ".mc"):
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, "", 0, err
		}
		im, err := minic.Compile(string(src))
		return im, name, 0, err
	default:
		im, err := program.LoadFile(path)
		return im, name, 0, err
	}
}

// sampledRun is the -mode sampled tier: the image goes through the same
// build/compress pipeline as an exact run, then internal/fastpath
// estimates CPI with functional fast-forward between short detailed
// windows instead of simulating every cycle.
func sampledRun(im *program.Image, cfg cpu.Config, scfg fastpath.SampleConfig, name, format, outPath string) {
	c, err := cpu.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	c.Out = os.Stderr
	if err := c.Load(im); err != nil {
		log.Fatal(err)
	}
	res, err := fastpath.Sampled(c, scfg)
	if err != nil {
		log.Fatal(err)
	}
	out := os.Stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		out = f
	}
	if format == "json" {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Fprintf(out, "%s (%s): sampled CPI %.4f (95%% CI [%.4f, %.4f])\n",
		name, schemeOf(im), res.CPI, res.CPILow, res.CPIHigh)
	fmt.Fprintf(out, "estimated cycles %d over %d user instructions\n", res.EstCycles, res.TotalInstrs)
	fmt.Fprintf(out, "%d windows, %d fast-forward bursts, %d exact cycles, %.1f%% run detailed\n",
		res.Windows, res.Bursts, res.ExactCycles,
		100*float64(res.DetailedInstrs)/float64(res.TotalInstrs))
}

// nativeProfile runs the native image once to collect the per-procedure
// profile that drives selective compression.
func nativeProfile(im *program.Image, cfg cpu.Config) (*cpu.ProcProfile, error) {
	c, err := cpu.New(cfg)
	if err != nil {
		return nil, err
	}
	prof := cpu.NewProcProfile(im)
	c.Prof = prof
	c.Out = os.Stderr
	if err := c.Load(im); err != nil {
		return nil, err
	}
	if _, err := c.Run(); err != nil {
		return nil, err
	}
	return prof, nil
}

// profiledRun executes im with the collector attached — its recorder
// and window sampler share one attribution ledger — and, for -folded
// only, the exec/miss profiler. It verifies the attribution invariant
// on lines, procedures and windows at once (a violation is a simulator
// bug, so it fails the run loudly) and digests the machine into a
// report.
func profiledRun(im *program.Image, cfg cpu.Config, col *telemetry.Collector, folded bool) (*cpu.ProcProfile, *profile.Profile, *telemetry.Report, error) {
	c, err := cpu.New(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	col.Attach(c)
	var prof *cpu.ProcProfile
	if folded {
		prof = cpu.NewProcProfile(im)
		c.Prof = prof
	}
	c.Out = os.Stderr
	if err := c.Load(im); err != nil {
		return nil, nil, nil, err
	}
	if _, err := c.Run(); err != nil {
		return nil, nil, nil, err
	}
	if err := col.Recorder.Verify(); err != nil {
		return nil, nil, nil, err
	}
	return prof, col.Recorder.Profile(), telemetry.NewReport(c, col), nil
}

// runDiff is the `ccprof diff` subcommand: load two profile artifacts,
// align them by procedure and cache line, and print the ranked cycle
// differential (text or JSON). Exit 2 on flag misuse, 1 on unreadable,
// corrupted or schema-mismatched artifacts.
func runDiff(args []string) {
	fs := flag.NewFlagSet("ccprof diff", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "print the ranked differential as JSON")
	top := fs.Int("top", 10, "rows per section in the text form (0 = all)")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "Usage: ccprof diff [-json] [-top N] <old.json> <new.json>\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if fs.NArg() != 2 {
		fs.Usage()
		os.Exit(2)
	}
	old, err := profile.Load(fs.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	new, err := profile.Load(fs.Arg(1))
	if err != nil {
		log.Fatal(err)
	}
	d, err := profile.DiffProfiles(old, new)
	if err != nil {
		log.Fatal(err)
	}
	if *jsonOut {
		if err := d.WriteJSON(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Print(d.Format(*top))
}

func schemeOf(im *program.Image) string {
	if im.Compress == nil {
		return "native"
	}
	return string(im.Compress.Scheme)
}

func writeFile(path string, write func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := write(f); err != nil {
		f.Close()
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}
