// Command minicc compiles MiniC source to a CLR32 program image (and
// optionally straight to a compressed image), closing the paper's
// toolchain loop: source -> compile -> compress -> simulate.
//
//	minicc prog.mc                          compile to prog.img
//	minicc -run prog.mc                     compile and execute immediately
//	minicc -S prog.mc                       print the generated assembly
//	minicc -scheme dict -rf prog.mc         emit a compressed image directly
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/minic"
	"repro/internal/program"
	"repro/internal/session"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("minicc: ")
	var (
		out     = flag.String("o", "", "output image path (default: source with .img)")
		runIt   = flag.Bool("run", false, "execute the program after compiling")
		dumpAsm = flag.Bool("S", false, "print the generated assembly and exit")
		scheme  = flag.String("scheme", "", "also compress with this scheme (dict, codepack, procdict)")
		rf      = flag.Bool("rf", false, "compressed image uses the shadow register file")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	im, err := minic.Compile(string(src))
	if err != nil {
		log.Fatal(err)
	}
	if *dumpAsm {
		fmt.Print(program.DisassembleImage(im))
		return
	}
	if *scheme != "" {
		res, err := core.Compress(im, core.Options{
			Scheme: program.Scheme(*scheme), ShadowRF: *rf})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("compressed with %s: %d -> %d bytes (ratio %.1f%%)\n",
			*scheme, res.OriginalSize, res.StoredSize, res.Ratio()*100)
		im = res.Image
	}
	if *runIt {
		cfg := cpu.DefaultConfig()
		cfg.MaxInstr = 2_000_000_000
		c, err := session.Machine(cfg, im, os.Stdout)
		if err != nil {
			log.Fatal(err)
		}
		code, err := c.Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n[exit %d; %d instructions, %d cycles]\n",
			code, c.Stats.Instrs, c.Stats.Cycles)
		return
	}
	path := *out
	if path == "" {
		path = strings.TrimSuffix(flag.Arg(0), ".mc") + ".img"
	}
	if err := program.SaveFile(path, im); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d bytes of code, %d procedures\n", path, im.CodeSize(), len(im.Procs))
}
