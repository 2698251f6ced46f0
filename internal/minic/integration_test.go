package minic

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/profile"
	"repro/internal/program"
)

// queensSrc is a real program with recursion, globals and loops — enough
// structure to give compression and decompression something to chew on.
const queensSrc = `
var cols[8];
var solutions;

func safe(row, col) {
	var r = 0;
	while (r < row) {
		var c = cols[r];
		if (c == col) { return 0; }
		if (row - r == col - c) { return 0; }
		if (row - r == c - col) { return 0; }
		r = r + 1;
	}
	return 1;
}

func solve(row, n) {
	if (row == n) {
		solutions = solutions + 1;
		return 0;
	}
	var col = 0;
	while (col < n) {
		if (safe(row, col)) {
			cols[row] = col;
			solve(row + 1, n);
		}
		col = col + 1;
	}
	return 0;
}

func main() {
	solutions = 0;
	solve(0, 8);
	print(solutions);
	return 0;
}
`

// TestCompiledProgramSurvivesCompression is the full paper workflow on
// compiled code: MiniC -> native image -> compressed image -> identical
// execution under every software decompressor.
func TestCompiledProgramSurvivesCompression(t *testing.T) {
	im, err := Compile(queensSrc)
	if err != nil {
		t.Fatal(err)
	}
	run := func(im *program.Image) (string, cpu.Stats) {
		cfg := cpu.DefaultConfig()
		cfg.MaxInstr = 100_000_000
		c, _ := cpu.New(cfg)
		var out bytes.Buffer
		c.Out = &out
		if err := c.Load(im); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return out.String(), c.Stats
	}
	want, natStats := run(im)
	if want != "92" { // 8-queens has 92 solutions
		t.Fatalf("8-queens = %q, want 92", want)
	}
	for _, opts := range []core.Options{
		{Scheme: program.SchemeDict},
		{Scheme: program.SchemeDict, ShadowRF: true},
		{Scheme: program.SchemeCodePack, ShadowRF: true},
		{Scheme: program.SchemeProcDict, ShadowRF: true},
	} {
		res, err := core.Compress(im, opts)
		if err != nil {
			t.Fatalf("%v: %v", opts, err)
		}
		got, st := run(res.Image)
		if got != want {
			t.Fatalf("%s: output %q, want %q", opts.Scheme, got, want)
		}
		if st.Instrs != natStats.Instrs {
			t.Fatalf("%s: instr count changed", opts.Scheme)
		}
	}
}

// TestSelectiveCompressionOnCompiledCode profiles the compiled program
// and keeps its hottest function native.
func TestSelectiveCompressionOnCompiledCode(t *testing.T) {
	im, err := Compile(queensSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cpu.DefaultConfig()
	cfg.MaxInstr = 100_000_000
	c, _ := cpu.New(cfg)
	rec := profile.NewRecorder(im)
	rec.Attach(c)
	var out bytes.Buffer
	c.Out = &out
	if err := c.Load(im); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	// safe() is the inner loop: it must dominate the execution profile.
	prof := rec.Profile()
	safeExecs, mainExecs := prof.ProcByName("safe").Instrs, prof.ProcByName("main").Instrs
	if safeExecs <= mainExecs {
		t.Fatalf("safe (%d) should out-execute main (%d)", safeExecs, mainExecs)
	}
	res, err := core.Compress(im, core.Options{
		Scheme:      program.SchemeDict,
		ShadowRF:    true,
		NativeProcs: map[string]bool{"safe": true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := res.Image.ProcByName("safe"); p == nil || p.Addr >= program.CompBase {
		t.Fatal("safe not in the native region")
	}
	c2, _ := cpu.New(cfg)
	var out2 bytes.Buffer
	c2.Out = &out2
	if err := c2.Load(res.Image); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Run(); err != nil {
		t.Fatal(err)
	}
	if out2.String() != out.String() {
		t.Fatal("selective compiled run diverged")
	}
}

// FuzzCompile feeds arbitrary text to the front end: it must never panic.
func FuzzCompile(f *testing.F) {
	f.Add("func main() { return 0; }")
	f.Add("var a[10]; func main() { a[1] = 2; return a[1]; }")
	f.Add("func f(x) { if (x) { return 1; } return 0; } func main() { return f(3); }")
	f.Add("func main() { prints(\"x\"); while (0) { break; } return 0; }")
	f.Add("func main() { return 1 && 2 || 3 < 4 << 5; }")
	f.Fuzz(func(t *testing.T, src string) {
		im, err := Compile(src)
		if err != nil {
			return
		}
		if err := im.Validate(); err != nil {
			t.Fatalf("accepted program produced invalid image: %v", err)
		}
	})
}
