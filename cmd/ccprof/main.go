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
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/fastpath"
	"repro/internal/profile"
	"repro/internal/program"
	"repro/internal/selective"
	"repro/internal/session"
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
	var (
		bench     = flag.String("bench", "", "profile a synthetic benchmark instead of a file")
		scale     = flag.Float64("scale", 1.0, "dynamic length multiplier for -bench")
		scheme    = flag.String("scheme", "native", "compression scheme: native, dict, codepack, procdict, copy")
		shadowRF  = flag.Bool("rf", false, "give the handler a shadow register file")
		selFrac   = flag.Float64("selective", 0, "fraction of the program (by misses) kept native (needs -scheme)")
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
		session.Usage("")
	}
	switch *format {
	case "text", "csv", "json":
	default:
		session.Usage(fmt.Sprintf("unknown -format %q (want text, csv or json)", *format))
	}
	m := session.Mode(*mode)
	if m != session.Exact && m != session.Sampled {
		session.Usage(fmt.Sprintf("bad -mode %q (want exact, sampled)", *mode))
	}
	session.Request{Tool: "ccprof", Mode: m, Observers: session.Observing(map[session.Observer]bool{
		session.Telemetry: *tracePath != "" || *heatPath != "" || *timeline != "" || *phases ||
			*format == "csv",
		session.Attribution: *foldPath != "" || *profPath != "" || *lines || *procs,
	})}.Check()
	if *selFrac != 0 && *scheme == "native" {
		session.Usage("-selective needs a compressing -scheme (it picks the procedures the compressed image keeps native)")
	}

	s := session.New("ccprof", *icacheKB, *maxInstr, *manifest, os.Stderr)
	s.Manifest.SetConfig("scheme", *scheme)
	s.Manifest.SetConfig("format", *format)
	if m == session.Sampled {
		s.Manifest.SetConfig("mode", *mode)
	}
	defer s.Finish()

	var t *session.Target
	var err error
	if *bench != "" {
		if t, err = session.Bench(*bench, *scale); err == nil {
			s.EndStage(session.StageRead)
		}
	} else {
		t, err = s.Open(flag.Arg(0), filepath.Base(flag.Arg(0)))
	}
	if err != nil {
		log.Fatal(err)
	}

	// Compress on the fly when asked. A -selective fraction needs a
	// profiled native run first to know which procedures are hot.
	if *scheme != "native" {
		if t.Image.Compress != nil {
			log.Fatalf("%s is already compressed (%s); drop -scheme", t.Name, t.Image.Compress.Scheme)
		}
		opts := core.Options{Scheme: program.Scheme(*scheme), ShadowRF: *shadowRF}
		if *selFrac > 0 {
			prof, _, err := selective.Profile(t.Image, s.Config)
			if err != nil {
				log.Fatalf("selective pre-run: %v", err)
			}
			opts.NativeProcs = selective.Select(prof, selective.ByMisses, *selFrac)
		}
		res, err := core.Compress(t.Image, opts)
		if err != nil {
			log.Fatal(err)
		}
		t.Image, t.Encoded = res.Image, false
		s.EndStage(session.StageCompress)
	}
	if err := s.RecordRunImage(t); err != nil {
		log.Fatal(err)
	}

	if m == session.Sampled {
		sampled(s, t, fastpath.SampleConfig{Window: *sWindow, Interval: *sIntv}, *format, *outPath)
		return
	}

	col := telemetry.New()
	if *tracePath != "" {
		col.MaxEvents = telemetry.DefaultMaxEvents
	}
	col.Windows = telemetry.NewWindowSampler(*window)
	s.Manifest.SetConfig("window", fmt.Sprint(col.Windows.Size))
	o := session.Observers{Collector: col, Recorder: profile.NewRecorder(t.Image)}
	c, err := s.Machine(t.Image, o.Attach)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		log.Fatal(err)
	}
	s.EndStage(session.StageRun)
	// The attribution invariant on lines, procedures and windows at
	// once: a violation is a simulator bug, so the run fails loudly.
	if err := o.Recorder.Verify(); err != nil {
		log.Fatal(err)
	}
	attr, rep := o.Recorder.Profile(), telemetry.NewReport(c, col)
	rep.SetIdentity(t.Name, t.Scheme(), t.Seed)
	rep.SetManifest(s.Manifest)
	attr.SetIdentity(t.Name, t.Scheme())
	attr.SetManifest(s.Manifest)
	rep.SetAttribution(attr)
	s.EndStage(session.StageAttribute)

	out, closeOut := output(*outPath)
	defer closeOut()
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
		writeFile(*tracePath, func(f *os.File) error { return col.WriteChromeTrace(f, t.Image) })
	}
	if *foldPath != "" {
		writeFile(*foldPath, func(f *os.File) error { return telemetry.WriteFolded(f, attr) })
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
}

// sampled is the -mode sampled tier: the image went through the same
// build/compress pipeline as an exact run, then internal/fastpath
// estimates CPI with functional fast-forward between short detailed
// windows instead of simulating every cycle.
func sampled(s *session.Session, t *session.Target, scfg fastpath.SampleConfig, format, outPath string) {
	c, err := s.Machine(t.Image)
	if err != nil {
		log.Fatal(err)
	}
	res, err := fastpath.Sampled(c, scfg)
	if err != nil {
		log.Fatal(err)
	}
	s.EndStage(session.StageRun)
	out, closeOut := output(outPath)
	defer closeOut()
	if format == "json" {
		if err := session.WriteJSON(out, res); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Fprintf(out, "%s (%s): sampled CPI %.4f (95%% CI [%.4f, %.4f])\n",
		t.Name, t.Scheme(), res.CPI, res.CPILow, res.CPIHigh)
	fmt.Fprintf(out, "estimated cycles %d over %d user instructions\n", res.EstCycles, res.TotalInstrs)
	fmt.Fprintf(out, "%d windows, %d fast-forward bursts, %d exact cycles, %.1f%% run detailed\n",
		res.Windows, res.Bursts, res.ExactCycles,
		100*float64(res.DetailedInstrs)/float64(res.TotalInstrs))
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

// output opens the report stream: the -o file when one is named, else
// stdout.
func output(path string) (io.Writer, func()) {
	if path == "" {
		return os.Stdout, func() {}
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	return f, func() {
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
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
