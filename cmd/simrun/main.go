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
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/cpu"
	"repro/internal/fastpath"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/program"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("simrun: ")
	start := time.Now()
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
	switch *mode {
	case "exact", "functional", "sampled":
	default:
		log.Printf("bad -mode %q (want exact, functional, sampled)", *mode)
		flag.Usage()
		os.Exit(2)
	}
	if *ckAt > 0 && *ckPath == "" {
		log.Print("-checkpoint-at needs -checkpoint")
		flag.Usage()
		os.Exit(2)
	}
	if *ckPath != "" && *mode != "exact" {
		log.Print("-checkpoint requires -mode exact (the fast tiers have no complete timing state to save)")
		flag.Usage()
		os.Exit(2)
	}
	wantArgs := 1
	if *compare {
		wantArgs = 2
	}
	if *restore != "" {
		wantArgs = 0
		if *compare {
			log.Print("-restore and -compare are mutually exclusive")
			flag.Usage()
			os.Exit(2)
		}
	}
	if flag.NArg() != wantArgs {
		flag.Usage()
		os.Exit(2)
	}
	if *mode != "exact" && (*compare || *profTbl || *traceN > 0 || *telem) {
		log.Printf("-mode %s supports none of -compare/-profile/-trace/-telemetry (detailed-engine observers)", *mode)
		flag.Usage()
		os.Exit(2)
	}
	if *ckPath != "" && *compare {
		log.Print("-checkpoint and -compare are mutually exclusive")
		flag.Usage()
		os.Exit(2)
	}
	if *restore != "" && (*profTbl || *traceN > 0 || *telem || (*jsonOut && *mode == "exact")) {
		log.Print("-restore supports only -stats observers (the image identity -profile/-trace/-telemetry/-json need is not part of a checkpoint)")
		flag.Usage()
		os.Exit(2)
	}

	man := obs.New("simrun")
	man.SetConfig("icache_kb", fmt.Sprint(*icacheKB))
	man.SetConfig("mode", *mode)
	for _, path := range flag.Args() {
		if err := man.AddInputFile(path, path); err != nil {
			log.Fatal(err)
		}
	}
	if *manifest != "" {
		defer func() {
			man.Finish(start)
			if err := man.Write(*manifest); err != nil {
				log.Fatal(err)
			}
		}()
	}

	if *mode != "exact" {
		runFast(*mode, *restore, flag.Args(), fastpath.SampleConfig{
			Window: *sWindow, Interval: *sIntv, Warmup: *sWarmup,
		}, *icacheKB, *maxInstr, *jsonOut)
		return
	}

	cfg := cpu.DefaultConfig()
	cfg.ICache.SizeBytes = *icacheKB * 1024
	cfg.MaxInstr = *maxInstr

	if *restore != "" {
		c := restoredMachine(*restore)
		c.Out = os.Stdout
		code, err := c.Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n[resumed machine exited with code %d]\n", code)
		printStats(c.Stats, *stats)
		return
	}

	var col *telemetry.Collector
	if *telem || *jsonOut {
		col = telemetry.New()
	}
	c, attr, im := run(flag.Arg(0), cfg, *profTbl, *traceN, col, *jsonOut, *ckPath, *ckAt, man)
	first := c.Stats
	if *compare {
		c2, _, _ := run(flag.Arg(1), cfg, false, 0, nil, *jsonOut, "", 0, nil)
		fmt.Printf("slowdown: %.3f (%d vs %d cycles)\n",
			float64(c2.Stats.Cycles)/float64(first.Cycles), c2.Stats.Cycles, first.Cycles)
		return
	}
	if *jsonOut {
		rep := telemetry.NewReport(c, col)
		rep.SetIdentity(flag.Arg(0), schemeOf(im), 0)
		rep.SetManifest(man)
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
		rep.SetIdentity(flag.Arg(0), schemeOf(im), 0)
		if err := rep.WriteText(os.Stdout, col); err != nil {
			log.Fatal(err)
		}
	}
}

func schemeOf(im *program.Image) string {
	if im.Compress == nil {
		return "native"
	}
	return string(im.Compress.Scheme)
}

func run(path string, cfg cpu.Config, profiled bool, traceN int, col *telemetry.Collector, quiet bool, ckPath string, ckAt uint64, man *obs.Manifest) (*cpu.CPU, *profile.Profile, *program.Image) {
	im, err := program.LoadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	c, err := cpu.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	var rec *profile.Recorder
	if profiled {
		rec = profile.NewRecorder(im)
	}
	// The collector drives the recorder from its own commit hook.
	if col != nil {
		col.Recorder = rec
		col.Attach(c)
	} else if rec != nil {
		rec.Attach(c)
	}
	var ring *trace.Ring
	if traceN > 0 {
		ring = trace.NewRing(traceN, im)
		ring.Attach(c)
	}
	c.Out = os.Stdout
	if quiet {
		c.Out = os.Stderr
	}
	if err := c.Load(im); err != nil {
		log.Fatal(err)
	}
	if ckPath != "" {
		if ckAt > 0 {
			halted, err := c.RunDetailedFor(ckAt)
			if err != nil {
				log.Fatal(err)
			}
			if halted {
				log.Fatalf("program halted after %d user instructions, before the -checkpoint-at %d point", c.Stats.Instrs, ckAt)
			}
		}
		if err := fastpath.Capture(c, man).Save(ckPath); err != nil {
			log.Fatal(err)
		}
		if !quiet {
			fmt.Printf("[checkpoint at %d user instructions -> %s]\n", c.Stats.Instrs, ckPath)
		}
	}
	code, err := c.Run()
	if ring != nil {
		fmt.Printf("\n--- last %d committed instructions ---\n%s", traceN, ring.Dump())
	}
	if err != nil {
		log.Fatal(err)
	}
	if !quiet {
		fmt.Printf("\n[%s exited with code %d]\n", path, code)
	}
	var attr *profile.Profile
	if rec != nil {
		// The attribution sum invariant is a simulator contract: a
		// violation means the recorder missed or double-counted cycles,
		// so the run fails rather than printing wrong numbers.
		if err := rec.Verify(); err != nil {
			log.Fatal(err)
		}
		attr = rec.Profile()
		attr.SetIdentity(path, schemeOf(im))
	}
	return c, attr, im
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

// restoredMachine rebuilds a full machine from a checkpoint file.
func restoredMachine(path string) *cpu.CPU {
	ck, err := fastpath.Load(path)
	if err != nil {
		log.Fatal(err)
	}
	c, err := ck.Apply()
	if err != nil {
		log.Fatal(err)
	}
	return c
}

// runFast drives the fast tier: pure functional execution or sampled
// detailed simulation (internal/fastpath). The machine comes from a
// fresh image load, or — with -restore — from a checkpoint, in which
// case the machine configuration is the checkpointed one and -icache
// and -max do not apply.
func runFast(mode, restorePath string, args []string, scfg fastpath.SampleConfig, icacheKB int, maxInstr uint64, jsonOut bool) {
	var c *cpu.CPU
	path := restorePath
	if restorePath != "" {
		c = restoredMachine(restorePath)
	} else {
		path = args[0]
		im, err := program.LoadFile(path)
		if err != nil {
			log.Fatal(err)
		}
		cfg := cpu.DefaultConfig()
		cfg.ICache.SizeBytes = icacheKB * 1024
		cfg.MaxInstr = maxInstr
		c, err = cpu.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if err := c.Load(im); err != nil {
			log.Fatal(err)
		}
	}
	c.Out = os.Stdout
	if jsonOut {
		c.Out = os.Stderr
	}
	start := time.Now()
	switch mode {
	case "functional":
		code, err := fastpath.Functional(c)
		elapsed := time.Since(start)
		if err != nil {
			log.Fatal(err)
		}
		mips := float64(c.FStats.Instrs) / 1e6 / elapsed.Seconds()
		if jsonOut {
			writeJSON(map[string]any{
				"mode":           "functional",
				"program":        path,
				"exit_code":      code,
				"instrs":         c.FStats.Instrs,
				"handler_instrs": c.FStats.HandlerInstrs,
				"exceptions":     c.FStats.Exceptions,
				"host_seconds":   elapsed.Seconds(),
				"mips":           mips,
			})
			return
		}
		fmt.Printf("\n[%s exited with code %d]\n", path, code)
		fmt.Printf("functional: %d user instructions (+%d handler), %d decompression exceptions\n",
			c.FStats.Instrs, c.FStats.HandlerInstrs, c.FStats.Exceptions)
		fmt.Printf("host: %v (%.1f M instr/s)\n", elapsed.Round(time.Millisecond), mips)
	case "sampled":
		res, err := fastpath.Sampled(c, scfg)
		if err != nil {
			log.Fatal(err)
		}
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
}

func writeJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Fatal(err)
	}
}
