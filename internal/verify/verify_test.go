package verify

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/program"
	"repro/internal/synth"
)

func buildPair(t *testing.T, opts core.Options) (*program.Image, *program.Image) {
	t.Helper()
	p, _ := synth.ByName("pegwit")
	im, err := synth.Build(p.Scale(0.05))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Compress(im, opts)
	if err != nil {
		t.Fatal(err)
	}
	return im, res.Image
}

func cfg() cpu.Config {
	c := cpu.DefaultConfig()
	c.MaxInstr = 100_000_000
	return c
}

func TestLockstepEquivalentSchemes(t *testing.T) {
	for _, opts := range []core.Options{
		{Scheme: program.SchemeDict, ShadowRF: true},
		{Scheme: program.SchemeCodePack, ShadowRF: true},
		{Scheme: program.SchemeProcDict, ShadowRF: true},
	} {
		nat, comp := buildPair(t, opts)
		if err := Lockstep(nat, comp, cfg(), 0); err != nil {
			t.Fatalf("%s: %v", opts.Scheme, err)
		}
	}
}

func TestLockstepWithBoundedSteps(t *testing.T) {
	nat, comp := buildPair(t, core.Options{Scheme: program.SchemeDict, ShadowRF: true})
	if err := Lockstep(nat, comp, cfg(), 5000); err != nil {
		t.Fatal(err)
	}
}

func TestLockstepDetectsCorruptedDictionary(t *testing.T) {
	nat, comp := buildPair(t, core.Options{Scheme: program.SchemeDict, ShadowRF: true})
	// Corrupt one dictionary entry: the decompressor will materialise a
	// wrong instruction and the lockstep must catch it.
	dict := comp.Segment(program.SegDict)
	dict.SetWord(dict.Base+40, dict.Word(dict.Base+40)^0x00210000)
	err := Lockstep(nat, comp, cfg(), 0)
	if err == nil {
		t.Fatal("corruption not detected")
	}
	var d *Divergence
	if de, ok := err.(*Divergence); ok {
		d = de
	}
	if d == nil {
		// A corrupted instruction may also make the simulator fault —
		// that is an acceptable detection too, but it must not be nil.
		if !strings.Contains(err.Error(), "verify:") {
			t.Fatalf("unexpected error shape: %v", err)
		}
		return
	}
	if d.What == "" {
		t.Fatal("empty divergence description")
	}
}

func TestLockstepDetectsClobberingHandler(t *testing.T) {
	// Break a handler's register restore: nop out the `lw $t1, -4($sp)`
	// epilogue load of the single-RF dictionary handler, so every
	// invocation leaves $t1 corrupted. Lockstep must pinpoint it.
	nat, comp := buildPair(t, core.Options{Scheme: program.SchemeDict})
	h := comp.Segment(program.SegDecompressor)
	const lwT1 = 0x8FA9FFFC // lw $t1, -4($sp)
	patched := false
	for a := h.Base; a+4 <= h.Base+uint32(len(h.Data)); a += 4 {
		if h.Word(a) == lwT1 {
			h.SetWord(a, 0) // nop
			patched = true
		}
	}
	if !patched {
		t.Fatal("restore instruction not found in handler")
	}
	err := Lockstep(nat, comp, cfg(), 0)
	if err == nil {
		t.Fatal("register clobbering not detected")
	}
	if !strings.Contains(err.Error(), "register") && !strings.Contains(err.Error(), "verify") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestLockstepComparesOutput runs two builds of testdata/strings.s that
// differ in one byte of a message the program prints: every committed
// instruction and register agrees, only the output does not.
func TestLockstepComparesOutput(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "strings.s"))
	if err != nil {
		t.Fatal(err)
	}
	a, err := asm.Assemble(string(src))
	if err != nil {
		t.Fatal(err)
	}
	b, err := asm.Assemble(string(src))
	if err != nil {
		t.Fatal(err)
	}
	data := b.Segment(program.SegData).Data
	i := bytes.Index(data, []byte("len="))
	if i < 0 {
		t.Fatal(`"len=" not found in .data`)
	}
	data[i] = 'L'
	err = Lockstep(a, b, cfg(), 0)
	d, ok := err.(*Divergence)
	if !ok || !strings.Contains(d.What, "outputs differ") {
		t.Fatalf("want an output divergence, got %v", err)
	}
	// A prefix that stops before the halt never reaches the output check.
	if err := Lockstep(a, b, cfg(), d.Step); err != nil {
		t.Fatalf("prefix of %d steps: %v", d.Step, err)
	}
}

func TestEquivalentWrapper(t *testing.T) {
	nat, comp := buildPair(t, core.Options{Scheme: program.SchemeDict, ShadowRF: true})
	ok, msg := Equivalent(nat, comp, cfg(), 0)
	if !ok || msg != "equivalent" {
		t.Fatalf("ok=%v msg=%q", ok, msg)
	}
	dict := comp.Segment(program.SegDict)
	dict.SetWord(dict.Base+16, 0)
	ok, msg = Equivalent(nat, comp, cfg(), 0)
	if ok || !strings.Contains(msg, "NOT equivalent") {
		t.Fatalf("ok=%v msg=%q", ok, msg)
	}
}

func TestSelfLockstep(t *testing.T) {
	p, _ := synth.ByName("mpeg2enc")
	im, err := synth.Build(p.Scale(0.05))
	if err != nil {
		t.Fatal(err)
	}
	if err := Lockstep(im, im, cfg(), 0); err != nil {
		t.Fatalf("image must be equivalent to itself: %v", err)
	}
}
