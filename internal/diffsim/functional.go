package diffsim

// Functional-lockstep oracle: every image kind is additionally run on
// the functional fast-forward engine (fastpath.Functional) and its
// final architectural state is compared against the detailed lockstep
// result for the same image. The functional engine is the detailed
// engine's own loop under its functional policy: it shares execute,
// retire, exception entry and budget code and differs only in its
// fetch source — flat per-region decode stores over an
// exception-materialised code store instead of cache-resident
// predecode — so a divergence localises a bug to exactly that source.
// Timing state is out of scope by construction; the comparison covers
// syscall output, exit code, the user register bank (masking $k0/$k1,
// which the single-register-file decompressor is architecturally
// allowed to clobber), HI/LO, the committed user-instruction count,
// final data memory, and every functionally materialised code word
// against the golden native text.

import (
	"bytes"
	"fmt"

	"repro/internal/cpu"
	"repro/internal/fastpath"
	"repro/internal/program"
	"repro/internal/verify"
)

// functionalBudget bounds one functional run (user + handler
// instructions, both engines' counters). Generated programs commit at
// most Options.MaxSteps user instructions; the budget leaves generous
// room for handler activity while keeping a broken functional handler
// (the oracle's own failure mode) from spinning forever — exhausting it
// is reported as a finding, since the detailed run finished.
const functionalBudget = 50_000_000

// checkFunctional replays every image on the functional engine and
// compares final architectural state with the detailed results. It
// returns the first divergence ("" = all equivalent) and the index of
// the image that diverged.
func checkFunctional(images []*program.Image, results []*verify.MultiResult, opts Options) (string, int) {
	for img, im := range images {
		if reason := functionalMismatch(im, results[img], opts); reason != "" {
			return "functional: " + reason, img
		}
	}
	return "", -1
}

// functionalMismatch runs one image functionally and diffs it against
// its detailed lockstep result.
func functionalMismatch(im *program.Image, det *verify.MultiResult, opts Options) string {
	cfg := cpu.DefaultConfig()
	cfg.FunctionalBreak = opts.FunctionalBreak
	cfg.MaxInstr = functionalBudget
	if opts.ICacheBytes > 0 {
		cfg.ICache.SizeBytes = opts.ICacheBytes
	}
	c, err := cpu.New(cfg)
	if err != nil {
		return fmt.Sprintf("cpu: %v", err)
	}
	var out bytes.Buffer
	c.Out = &out
	if err := c.Load(im); err != nil {
		return fmt.Sprintf("load: %v", err)
	}
	code, err := fastpath.Functional(c)
	if err != nil {
		return fmt.Sprintf("run: %v", err)
	}
	if got, want := out.String(), string(det.Output); got != want {
		return fmt.Sprintf("output %q, detailed %q", got, want)
	}
	if code != det.ExitCode {
		return fmt.Sprintf("exit code %d, detailed %d", code, det.ExitCode)
	}
	d := det.CPU
	for r := 0; r < 32; r++ {
		if r == 26 || r == 27 { // $k0/$k1: reserved for the decompressor
			continue
		}
		if f, want := c.UserReg(r), d.UserReg(r); f != want {
			return fmt.Sprintf("$%d = %#x, detailed %#x", r, f, want)
		}
	}
	hiF, loF := c.HiLo()
	hiD, loD := d.HiLo()
	if hiF != hiD || loF != loD {
		return fmt.Sprintf("HI/LO %#x/%#x, detailed %#x/%#x", hiF, loF, hiD, loD)
	}
	if c.FStats.Instrs != d.Stats.Instrs {
		return fmt.Sprintf("user instrs %d, detailed %d", c.FStats.Instrs, d.Stats.Instrs)
	}
	if seg := im.Segment(program.SegData); seg != nil {
		for i := range seg.Data {
			a := seg.Base + uint32(i)
			if f, want := c.Mem.LoadByte(a), d.Mem.LoadByte(a); f != want {
				return fmt.Sprintf("data byte %#x = %#x, detailed %#x", a, f, want)
			}
		}
	}
	// Every functionally materialised code word must match the golden
	// decompressed text — the functional mirror of the swic-content
	// oracle the detailed run was audited with.
	if golden := im.Segment(program.SegText); golden != nil {
		for a, v := range c.FStoreSnapshot() {
			if !golden.Contains(a) || !golden.Contains(a+3) {
				continue
			}
			if want := golden.Word(a); v != want {
				return fmt.Sprintf("materialised word at %#x = %#x, golden %#x", a, v, want)
			}
		}
	}
	return ""
}
