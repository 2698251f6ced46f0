// Command simrun executes a program image on the simulated CLR32
// machine and reports timing statistics.
//
//	simrun prog.img                      run with the paper's Table 1 machine
//	simrun -icache 64 prog.img           with a 64KB I-cache
//	simrun -stats prog.img               print the full statistics block
//	simrun -profile prog.img             measured per-procedure cost
//	                                     attribution (cycles, I-misses,
//	                                     decompression overhead), verified
//	                                     against the whole-run stats
//	simrun -trace 40 prog.img            dump the last 40 instructions
//	simrun -compare native.img comp.img  run both, report the slowdown
//	simrun -telemetry prog.img           CPI stack, histograms, cache heatmaps
//	simrun -json prog.img                machine-readable report on stdout
//
// The fast tier (internal/fastpath):
//
//	simrun -mode functional prog.img     architectural execution only, no timing
//	simrun -mode sampled prog.img        SMARTS-style sampled CPI with confidence interval
//	simrun -checkpoint ck.json -checkpoint-at 10000 prog.img
//	                                     save a full-machine checkpoint after
//	                                     10000 user instructions, then finish
//	simrun -restore ck.json              resume a checkpointed machine (no image)
//
// With -json the simulated program's own output goes to stderr so stdout
// is pure JSON; the field names are the stable ones shared with ccprof.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/cpu"
	"repro/internal/fastpath"
	"repro/internal/profile"
	"repro/internal/session"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("simrun: ")
	var (
		icacheKB = flag.Int("icache", 16, "I-cache size in KB")
		stats    = flag.Bool("stats", false, "print full statistics")
		profTbl  = flag.Bool("profile", false, "print the measured per-procedure cost attribution")
		compare  = flag.Bool("compare", false, "run two images and report the slowdown")
		maxInstr = flag.Uint64("max", 2_000_000_000, "instruction budget")
		traceN   = flag.Int("trace", 0, "dump the last N committed instructions")
		telem    = flag.Bool("telemetry", false, "print the telemetry report (CPI stack, histograms, heatmaps)")
		jsonOut  = flag.Bool("json", false, "print a machine-readable JSON report on stdout")
		manifest = flag.String("manifest", "", "write the run manifest sidecar here")

		mode    = flag.String("mode", "exact", "execution tier: exact (detailed), functional, sampled")
		ckPath  = flag.String("checkpoint", "", "save a full-machine checkpoint to this file")
		ckAt    = flag.Uint64("checkpoint-at", 0, "user instructions to run before -checkpoint captures")
		restore = flag.String("restore", "", "resume from a checkpoint file instead of loading an image")
		sWindow = flag.Uint64("sample-window", 0, "sampled mode: measured detailed window length (0 = default)")
		sIntv   = flag.Uint64("sample-interval", 0, "sampled mode: functional fast-forward length (0 = default)")
		sWarmup = flag.Uint64("sample-warmup", 0, "sampled mode: unmeasured detailed warmup length (default 0)")
	)
	flag.Parse()
	m := session.Mode(*mode)
	switch m {
	case session.Exact, session.Functional, session.Sampled:
	default:
		session.Usage(fmt.Sprintf("bad -mode %q (want exact, functional, sampled)", *mode))
	}
	if *ckAt > 0 && *ckPath == "" {
		session.Usage("-checkpoint-at needs -checkpoint")
	}
	session.Request{Tool: "simrun", Mode: m, Restore: *restore != "", Targets: flag.NArg(),
		Observers: session.Observing(map[session.Observer]bool{
			session.Attribution: *profTbl,
			session.Telemetry:   *telem || *jsonOut && m == session.Exact,
			session.TraceRing:   *traceN > 0,
			session.Capture:     *ckPath != "",
			session.Compare:     *compare,
		})}.Check()

	var out io.Writer = os.Stdout
	if *jsonOut {
		out = os.Stderr
	}
	s := session.New("simrun", *icacheKB, *maxInstr, *manifest, out)
	s.Manifest.SetConfig("mode", *mode)
	defer s.Finish()

	if m != session.Exact {
		runFast(s, m, *restore, fastpath.SampleConfig{
			Window: *sWindow, Interval: *sIntv, Warmup: *sWarmup,
		}, *jsonOut)
		return
	}

	if *restore != "" {
		c, err := s.Restore(*restore)
		if err != nil {
			log.Fatal(err)
		}
		code, err := c.Run()
		if err != nil {
			log.Fatal(err)
		}
		s.EndStage(session.StageRun)
		fmt.Printf("\n[resumed machine exited with code %d]\n", code)
		printStats(c.Stats, *stats)
		return
	}

	var col *telemetry.Collector
	if *telem || *jsonOut {
		col = telemetry.New()
	}
	c, attr, t := run(s, flag.Arg(0), *profTbl, *traceN, col, *jsonOut, *ckPath, *ckAt)
	first := c.Stats
	if *compare {
		c2, _, _ := run(s, flag.Arg(1), false, 0, nil, *jsonOut, "", 0)
		fmt.Printf("slowdown: %.3f (%d vs %d cycles)\n",
			float64(c2.Stats.Cycles)/float64(first.Cycles), c2.Stats.Cycles, first.Cycles)
		return
	}
	if *jsonOut {
		rep := telemetry.NewReport(c, col)
		rep.SetIdentity(t.Name, t.Scheme(), 0)
		rep.SetManifest(s.Manifest)
		s.EndStage(session.StageAttribute)
		if err := rep.WriteJSON(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	printStats(first, *stats)
	if *profTbl && attr != nil {
		fmt.Print(attr.FormatProcs(25))
	}
	if *telem {
		rep := telemetry.NewReport(c, col)
		rep.SetIdentity(t.Name, t.Scheme(), 0)
		if err := rep.WriteText(os.Stdout, col); err != nil {
			log.Fatal(err)
		}
	}
}

// run executes the image at path on the detailed engine with the asked
// observers, the image recorded in the manifest under path as given.
func run(s *session.Session, path string, profiled bool, traceN int, col *telemetry.Collector, quiet bool, ckPath string, ckAt uint64) (*cpu.CPU, *profile.Profile, *session.Target) {
	t, err := s.Open(path, path)
	if err != nil {
		log.Fatal(err)
	}
	o := session.Observers{Collector: col}
	if profiled {
		o.Recorder = profile.NewRecorder(t.Image)
	}
	if traceN > 0 {
		o.Ring = trace.NewRing(traceN, t.Image)
	}
	c, err := s.Machine(t.Image, o.Attach)
	if err != nil {
		log.Fatal(err)
	}
	if ckPath != "" {
		if err := s.Capture(c, ckPath, ckAt); err != nil {
			log.Fatal(err)
		}
		if !quiet {
			fmt.Printf("[checkpoint at %d user instructions -> %s]\n", c.Stats.Instrs, ckPath)
		}
	}
	code, err := c.Run()
	s.EndStage(session.StageRun)
	if o.Ring != nil {
		fmt.Printf("\n--- last %d committed instructions ---\n%s", traceN, o.Ring.Dump())
	}
	if err != nil {
		log.Fatal(err)
	}
	if !quiet {
		fmt.Printf("\n[%s exited with code %d]\n", path, code)
	}
	var attr *profile.Profile
	if o.Recorder != nil {
		// The attribution sum invariant is a simulator contract: a
		// violation means the recorder missed or double-counted cycles,
		// so the run fails rather than printing wrong numbers.
		if err := o.Recorder.Verify(); err != nil {
			log.Fatal(err)
		}
		attr = o.Recorder.Profile()
		attr.SetIdentity(path, t.Scheme())
		s.EndStage(session.StageAttribute)
	}
	return c, attr, t
}

func printStats(s cpu.Stats, full bool) {
	fmt.Printf("cycles %d, instructions %d (CPI %.2f)\n",
		s.Cycles, s.Instrs, float64(s.Cycles)/float64(s.Instrs))
	if !full {
		return
	}
	fmt.Printf("handler instructions: %d\n", s.HandlerInstrs)
	fmt.Printf("I-miss native/compressed: %d/%d (%.3f%% of instructions)\n",
		s.IMissNative, s.IMissCompressed,
		100*float64(s.IMisses())/float64(s.Instrs))
	fmt.Printf("decompression exceptions: %d (latency mean %.1f, worst %d cycles)\n",
		s.Exceptions, s.AvgExcCycles(), s.ExcCyclesMax)
	fmt.Printf("fetch/load stall cycles: %d/%d\n", s.FetchStalls, s.LoadStalls)
}

// runFast drives the fast tier: pure functional execution or sampled
// detailed simulation (internal/fastpath). The machine comes from a
// fresh image load, or — with -restore — from a checkpoint, in which
// case the machine configuration is the checkpointed one and -icache
// and -max do not apply.
func runFast(s *session.Session, m session.Mode, restorePath string, scfg fastpath.SampleConfig, jsonOut bool) {
	path := restorePath
	var c *cpu.CPU
	var err error
	if restorePath != "" {
		c, err = s.Restore(restorePath)
	} else {
		path = flag.Arg(0)
		var t *session.Target
		if t, err = s.Open(path, path); err == nil {
			c, err = s.Machine(t.Image)
		}
	}
	if err != nil {
		log.Fatal(err)
	}
	if m == session.Functional {
		rep, err := session.RunFunctional(c, path)
		if err != nil {
			log.Fatal(err)
		}
		s.EndStage(session.StageRun)
		if jsonOut {
			writeJSON(rep)
			return
		}
		fmt.Printf("\n[%s exited with code %d]\n", path, rep.ExitCode)
		fmt.Printf("functional: %d user instructions (+%d handler), %d decompression exceptions\n",
			rep.Instrs, rep.HandlerInstrs, rep.Exceptions)
		fmt.Printf("host: %v (%.1f M instr/s)\n", rep.Host.Round(time.Millisecond), rep.MIPS)
		return
	}
	res, err := fastpath.Sampled(c, scfg)
	if err != nil {
		log.Fatal(err)
	}
	s.EndStage(session.StageRun)
	if jsonOut {
		writeJSON(res)
		return
	}
	fmt.Printf("\n[%s exited with code %d]\n", path, res.ExitCode)
	fmt.Printf("sampled CPI %.4f (95%% CI [%.4f, %.4f]) over %d user instructions\n",
		res.CPI, res.CPILow, res.CPIHigh, res.TotalInstrs)
	fmt.Printf("estimated cycles %d; %d windows, %d bursts, %.1f%% of instructions run detailed\n",
		res.EstCycles, res.Windows, res.Bursts,
		100*float64(res.DetailedInstrs)/float64(res.TotalInstrs))
}

func writeJSON(v any) {
	if err := session.WriteJSON(os.Stdout, v); err != nil {
		log.Fatal(err)
	}
}
