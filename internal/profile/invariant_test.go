package profile

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/codec"
	_ "repro/internal/codec/all" // register every shipped codec
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/minic"
	"repro/internal/program"
)

// The attribution invariant, swept wide: for every testdata program ×
// every registered codec (plus native), the per-line and per-procedure
// attribution sums must be bit-identical to the whole-run cpu.Stats.
// This is the acceptance bar of the profiling layer — any counter the
// recorder fails to attribute, any commit that escapes the hook, any
// EPC mishandling in a handler shows up here as a hard failure.

// runProfiled executes im on a default machine with a Recorder attached
// and returns the recorder plus the machine.
func runProfiled(t *testing.T, name string, im *program.Image, cfgMod func(*cpu.Config)) (*Recorder, *cpu.CPU) {
	t.Helper()
	cfg := cpu.DefaultConfig()
	cfg.MaxInstr = 20_000_000
	if cfgMod != nil {
		cfgMod(&cfg)
	}
	c, err := cpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRecorder(im)
	r.Attach(c)
	if err := c.Load(im); err != nil {
		t.Fatalf("%s: load: %v", name, err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatalf("%s: run: %v", name, err)
	}
	return r, c
}

// checkProfiled runs im under every registered codec plus native and
// enforces recorder Verify, artifact Check, and a JSON round-trip.
func checkProfiled(t *testing.T, name string, im *program.Image) {
	t.Helper()
	for _, scheme := range append([]string{"native"}, codec.Names()...) {
		run := im
		if scheme != "native" {
			res, err := core.Compress(im, core.Options{Scheme: program.Scheme(scheme)})
			if err != nil {
				t.Fatalf("%s/%s: compress: %v", name, scheme, err)
			}
			run = res.Image
		}
		r, c := runProfiled(t, fmt.Sprintf("%s/%s", name, scheme), run, nil)
		if err := r.Verify(); err != nil {
			t.Errorf("%s/%s: %v", name, scheme, err)
			continue
		}
		p := r.Profile()
		p.SetIdentity(name, scheme)
		if err := p.Check(); err != nil {
			t.Errorf("%s/%s: artifact check: %v", name, scheme, err)
		}
		if p.Total.Cycles != c.Stats.Cycles {
			t.Errorf("%s/%s: profile total %d cycles, run has %d", name, scheme, p.Total.Cycles, c.Stats.Cycles)
		}
		if scheme != "native" && c.Stats.Exceptions > 0 && p.Total.DecompCycles() == 0 {
			t.Errorf("%s/%s: %d exceptions but zero attributed decompression cycles", name, scheme, c.Stats.Exceptions)
		}
		// Round-trip: serialize, reload (which re-Checks), compare.
		var buf bytes.Buffer
		if err := p.WriteJSON(&buf); err != nil {
			t.Fatalf("%s/%s: write: %v", name, scheme, err)
		}
		got, err := Read(bytes.NewReader(buf.Bytes()), name)
		if err != nil {
			t.Fatalf("%s/%s: reload: %v", name, scheme, err)
		}
		var buf2 bytes.Buffer
		if err := got.WriteJSON(&buf2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Errorf("%s/%s: JSON round-trip not byte-identical", name, scheme)
		}
	}
}

// TestAttributionInvariantExamples sweeps every example program in
// testdata — hand-written assembly and compiled MiniC — across every
// registered codec.
func TestAttributionInvariantExamples(t *testing.T) {
	for _, ex := range corpus(t) {
		ex := ex
		t.Run(ex.name, func(t *testing.T) { checkProfiled(t, ex.name, ex.im) })
	}
}

type example struct {
	name string
	im   *program.Image
}

// corpus builds every example program in testdata: hand-written
// assembly and compiled MiniC, in file-name order.
func corpus(t *testing.T) []example {
	t.Helper()
	root := filepath.Join("..", "..", "testdata")
	asmFiles, err := filepath.Glob(filepath.Join(root, "*.s"))
	if err != nil || len(asmFiles) == 0 {
		t.Fatalf("no assembly examples found: %v", err)
	}
	mcFiles, err := filepath.Glob(filepath.Join(root, "minic", "*.mc"))
	if err != nil || len(mcFiles) == 0 {
		t.Fatalf("no MiniC examples found: %v", err)
	}
	var out []example
	for _, path := range append(asmFiles, mcFiles...) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var im *program.Image
		if strings.HasSuffix(path, ".mc") {
			im, err = minic.Compile(string(src))
		} else {
			im, err = asm.Assemble(string(src))
		}
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out = append(out, example{filepath.Base(path), im})
	}
	return out
}
