// Command ccfuzz runs differential co-simulation fuzzing campaigns
// (internal/diffsim): seeded random programs are built into native,
// dictionary, CodePack and selective images and run in four-way
// lockstep; any divergence or oracle violation is shrunk to a minimal
// reproducer .s file and recorded as a JSONL finding.
//
//	ccfuzz -n 2000                       # smoke campaign, fixed seeds 0..1999
//	ccfuzz -n 100000 -seed 500000        # long campaign from another seed range
//	ccfuzz -n 50 -mutate drop-swic       # self-check: injected bug must be found
//	ccfuzz -n 2000 -functional           # also fuzz functional-vs-detailed divergence
//	ccfuzz -n 20 -functional-break       # self-check of the functional oracle
//	ccfuzz -n 5000 -jsonl out.jsonl -out repro/ -timeout 10s
//
// Exit status is 1 when the campaign produced findings, 2 on usage
// errors, and 0 on a clean run (for -mutate and -functional-break runs
// the polarity flips: a clean run means the harness MISSED the injected
// bug and exits 1).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/diffsim"
	"repro/internal/obs"
)

var (
	cases    = flag.Int("n", 2000, "number of generated cases")
	seed     = flag.Int64("seed", 0, "first seed of the campaign (seeds are sequential)")
	shadow   = flag.String("shadow", "auto", "shadow register file: auto (per-seed mix), on, off")
	mutate   = flag.String("mutate", "", "inject a known bug: dict-index-off-by-one, drop-swic, clobber-t8, replay-skip-dcache (needs -shadow on)")
	noShrink = flag.Bool("noshrink", false, "report findings without delta-debugging them")
	outDir   = flag.String("out", "", "directory for minimal reproducer .s files")
	jsonl    = flag.String("jsonl", "", "append findings as JSON lines to this file")
	timeout  = flag.Duration("timeout", 30*time.Second, "wall-clock budget per case (0 = unlimited)")
	maxSteps = flag.Uint64("maxsteps", 0, "user-instruction budget per case (0 = default)")
	funct    = flag.Bool("functional", false, "also replay every image on the functional fast-forward engine (functional-lockstep oracle)")
	fbreak   = flag.Bool("functional-break", false, "corrupt the functional handler (must-fail self-check; implies -functional)")
	stop     = flag.Int("stopafter", 0, "stop after this many findings (0 = run the full range)")
	workers  = flag.Int("workers", 1, "worker goroutines for the case fan-out (<=0 = GOMAXPROCS; outputs stay in seed order)")
	quiet    = flag.Bool("q", false, "suppress per-case progress")
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ccfuzz: ")
	flag.Parse()
	if flag.NArg() != 0 || *cases <= 0 {
		flag.Usage()
		os.Exit(2)
	}

	cfg := diffsim.CampaignConfig{
		StartSeed:       *seed,
		Cases:           *cases,
		Shrink:          !*noShrink,
		OutDir:          *outDir,
		MaxSteps:        *maxSteps,
		Timeout:         *timeout,
		StopAfter:       *stop,
		Workers:         *workers,
		Functional:      *funct || *fbreak,
		FunctionalBreak: *fbreak,
	}
	switch *shadow {
	case "auto":
	case "on":
		cfg.ShadowRF = func(int64) bool { return true }
	case "off":
		cfg.ShadowRF = func(int64) bool { return false }
	default:
		log.Printf("bad -shadow %q (want auto, on, off)", *shadow)
		os.Exit(2)
	}
	if *mutate != "" {
		cfg.Mutation = diffsim.MutationByName(*mutate)
		if cfg.Mutation == nil {
			log.Printf("unknown -mutate %q; shipped mutations:", *mutate)
			for _, m := range diffsim.Mutations() {
				log.Printf("  %-24s %s", m.Name, m.Descr)
			}
			os.Exit(2)
		}
	}
	var rep *obs.Reporter
	if !*quiet {
		cfg.Log = os.Stderr
		rep = obs.NewReporter("ccfuzz", os.Stderr, obs.NewLogger("ccfuzz", os.Stderr))
		cfg.Progress = func(done, total int) { rep.Step(done, total, "") }
	}
	if *jsonl != "" {
		f, err := os.OpenFile(*jsonl, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		cfg.JSONL = f
	}

	start := time.Now()
	sum, err := diffsim.Run(cfg)
	if rep != nil {
		rep.Done()
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ccfuzz: %d cases, %d findings, %d skipped in %v\n",
		sum.Cases, len(sum.Findings), sum.Skipped, time.Since(start).Round(time.Millisecond))

	if cfg.Mutation != nil || cfg.FunctionalBreak {
		// Self-check polarity: the injected bug must be found.
		what := "functional-break"
		if cfg.Mutation != nil {
			what = "mutation " + cfg.Mutation.Name
		}
		if len(sum.Findings) == 0 {
			log.Printf("FAIL: %s not detected in %d cases", what, sum.Cases)
			os.Exit(1)
		}
		fmt.Printf("ccfuzz: %s detected at seed %d\n", what, sum.Findings[0].Seed)
		return
	}
	if len(sum.Findings) > 0 {
		os.Exit(1)
	}
}
