package verify

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/synth"
)

// buildVariants assembles one native image plus dict and codepack
// rewrites of it.
func buildVariants(t *testing.T) []*program.Image {
	t.Helper()
	p, _ := synth.ByName("pegwit")
	nat, err := synth.Build(p.Scale(0.05))
	if err != nil {
		t.Fatal(err)
	}
	images := []*program.Image{nat}
	for _, opts := range []core.Options{
		{Scheme: program.SchemeDict, ShadowRF: true},
		{Scheme: program.SchemeCodePack, ShadowRF: true},
	} {
		res, err := core.Compress(nat, opts)
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, res.Image)
	}
	return images
}

func TestLockstepMultiEquivalent(t *testing.T) {
	images := buildVariants(t)
	results, err := LockstepMulti(images, MultiConfig{CPU: cfg()})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(images) {
		t.Fatalf("got %d results, want %d", len(results), len(images))
	}
	ref := results[0]
	if !ref.Halted || ref.ExitCode != 0 {
		t.Fatalf("reference did not exit cleanly: halted=%v code=%d", ref.Halted, ref.ExitCode)
	}
	if len(ref.Output) == 0 {
		t.Fatal("no output captured from reference machine")
	}
	for i, r := range results[1:] {
		if string(r.Output) != string(ref.Output) {
			t.Errorf("image %d output differs", i+1)
		}
		if r.Steps != ref.Steps {
			t.Errorf("image %d committed %d user instructions, reference %d", i+1, r.Steps, ref.Steps)
		}
		if r.CPU.Stats.Exceptions == 0 {
			t.Errorf("image %d took no decompression exceptions", i+1)
		}
	}
	if ref.CPU.Stats.Exceptions != 0 {
		t.Errorf("native image took %d exceptions", ref.CPU.Stats.Exceptions)
	}
}

func TestLockstepMultiOnCommitSeesHandler(t *testing.T) {
	images := buildVariants(t)
	var userCommits, handlerCommits [3]uint64
	_, err := LockstepMulti(images, MultiConfig{
		CPU: cfg(),
		OnCommit: func(img int, c *cpu.CPU, pc, instr uint32, handler bool) {
			if handler {
				handlerCommits[img]++
			} else {
				userCommits[img]++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if userCommits[0] == 0 || userCommits[0] != userCommits[1] || userCommits[0] != userCommits[2] {
		t.Fatalf("user commits diverge: %v", userCommits)
	}
	if handlerCommits[0] != 0 {
		t.Fatalf("native machine reported %d handler commits", handlerCommits[0])
	}
	if handlerCommits[1] == 0 || handlerCommits[2] == 0 {
		t.Fatalf("compressed machines reported no handler commits: %v", handlerCommits)
	}
}

func TestLockstepMultiDetectsCorruption(t *testing.T) {
	images := buildVariants(t)
	dict := images[1].Segment(program.SegDict)
	dict.SetWord(dict.Base+40, dict.Word(dict.Base+40)^0x00210000)
	_, err := LockstepMulti(images, MultiConfig{CPU: cfg()})
	if err == nil {
		t.Fatal("corruption not detected")
	}
	if d, ok := err.(*MultiDivergence); ok {
		if d.Img != 1 {
			t.Fatalf("divergence attributed to image %d, want 1", d.Img)
		}
	} else if !strings.Contains(err.Error(), "verify:") {
		t.Fatalf("unexpected error shape: %v", err)
	}
}

func TestLockstepMultiStepBudget(t *testing.T) {
	images := buildVariants(t)
	_, err := LockstepMulti(images, MultiConfig{CPU: cfg(), MaxSteps: 10})
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("want budget-exhausted error, got %v", err)
	}
}

// TestLockstepMultiHandlerRunaway: a handler whose entry branches to
// itself never returns control; the lockstep ends it after maxBurst+1
// handler instructions as a fault of that image, naming the count and
// the PC.
func TestLockstepMultiHandlerRunaway(t *testing.T) {
	nat, comp := buildPair(t, core.Options{Scheme: program.SchemeDict})
	h := comp.Segment(program.SegDecompressor)
	h.SetWord(h.Base, isa.EncodeI(isa.OpBEQ, 0, 0, 0xFFFF)) // beq $zero, $zero, .
	_, err := LockstepMulti([]*program.Image{nat, comp}, MultiConfig{CPU: cfg()})
	var me *MachineError
	if !errors.As(err, &me) || me.Img != 1 || me.Step != 0 {
		t.Fatalf("want a MachineError of image 1 at step 0, got %v", err)
	}
	want := fmt.Sprintf("handler ran 1048577 instructions without returning control (pc %#x)", h.Base)
	if me.Err.Error() != want {
		t.Fatalf("got %q, want %q", me.Err, want)
	}
}

// TestLockstepMultiHonoursMaxInstr: a program that never halts, run
// with no step limit, ends when the CPU's instruction budget is spent,
// as a fault that wraps the budget error.
func TestLockstepMultiHonoursMaxInstr(t *testing.T) {
	im, err := asm.Assemble(`
        .text
        .proc main
main:   beq   $zero, $zero, main
        .endp
`)
	if err != nil {
		t.Fatal(err)
	}
	c := cpu.DefaultConfig()
	c.MaxInstr = 1000
	_, err = LockstepMulti([]*program.Image{im, im}, MultiConfig{CPU: c})
	var me *MachineError
	if !errors.As(err, &me) || me.Img != 0 {
		t.Fatalf("want a MachineError of image 0, got %v", err)
	}
	if want := fmt.Sprintf("cpu: instruction budget 1000 exhausted at pc %#x", im.Entry); me.Err.Error() != want {
		t.Fatalf("got %q, want %q", me.Err, want)
	}
}
