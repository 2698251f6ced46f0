package profile

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/program"
)

// Attribution edge cases: deep recursion (PC→procedure mapping under a
// churning call stack), jr jump tables (indirect control flow between
// procedures), swic invalidation mid-handler (handler cycles must land
// on the faulting line, never on handler RAM), and the determinism of
// zero-line omission.

func assemble(t testing.TB, src string) *program.Image {
	t.Helper()
	im, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return im
}

func compress(t testing.TB, im *program.Image, scheme string) *program.Image {
	t.Helper()
	res, err := core.Compress(im, core.Options{Scheme: program.Scheme(scheme)})
	if err != nil {
		t.Fatalf("compress %s: %v", scheme, err)
	}
	return res.Image
}

// TestRecursionAttribution runs the recursive N-queens example: every
// commit inside the recursive solver — at any stack depth, including
// the jal/jr glue — must map to the solve procedure, and the invariant
// must hold under compression too.
func TestRecursionAttribution(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "queens.s"))
	if err != nil {
		t.Fatal(err)
	}
	im := assemble(t, string(src))
	for _, scheme := range []string{"native", "dict"} {
		run := im
		if scheme != "native" {
			run = compress(t, im, scheme)
		}
		r, c := runProfiled(t, "queens/"+scheme, run, nil)
		if err := r.Verify(); err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		p := r.Profile()
		solve := p.ProcByName("solve")
		if solve == nil || solve.Instrs+solve.HandlerInstrs == 0 {
			t.Fatalf("%s: no cost attributed to the recursive procedure", scheme)
		}
		main := p.ProcByName("main")
		if main == nil || main.Instrs == 0 {
			t.Fatalf("%s: no cost attributed to main", scheme)
		}
		if out := p.ProcByName(OutsideName); out != nil {
			t.Errorf("%s: %d cycles attributed outside the procedure table", scheme, out.Cycles)
		}
		// The recursive workhorse dominates: solve retires far more than
		// main in a 6-queens search.
		if solve.Instrs < main.Instrs {
			t.Errorf("%s: solve retired %d instrs, main %d — mapping looks inverted",
				scheme, solve.Instrs, main.Instrs)
		}
		if scheme != "native" && c.Stats.Exceptions > 0 && solve.DecompCycles() == 0 {
			t.Errorf("%s: compressed run took %d exceptions but solve has no decompression cycles",
				scheme, c.Stats.Exceptions)
		}
	}
}

// jumpTableSrc dispatches through a .word table with jr: three target
// procedures are reached only via the computed jump, exercising the
// PC→procedure mapping on indirect control flow.
const jumpTableSrc = `
        .data
tab:    .word alpha, beta, gamma
        .text
        .proc main
main:   move  $s0, $zero             # accumulator
        move  $s1, $zero             # index
loop:   slti  $t0, $s1, 30
        beq   $t0, $zero, done
        # target = tab[index % 3]
        ori   $t1, $zero, 3
        divu  $s1, $t1
        mfhi  $t2
        sll   $t2, $t2, 2
        la    $t3, tab
        addu  $t3, $t3, $t2
        lw    $t4, 0($t3)
        jalr  $t4
        addu  $s0, $s0, $v0
        addiu $s1, $s1, 1
        b     loop
done:   move  $a0, $s0
        ori   $v0, $zero, 1
        syscall
        move  $a0, $zero
        ori   $v0, $zero, 10
        syscall
        .endp

        .proc alpha
alpha:  ori   $v0, $zero, 1
        jr    $ra
        .endp

        .proc beta
beta:   ori   $v0, $zero, 2
        jr    $ra
        .endp

        .proc gamma
gamma:  ori   $v0, $zero, 3
        jr    $ra
        .endp
`

// TestJumpTableAttribution checks that commits reached only through a
// jr/jalr jump table land in the right procedure buckets.
func TestJumpTableAttribution(t *testing.T) {
	im := assemble(t, jumpTableSrc)
	for _, scheme := range []string{"native", "dict"} {
		run := im
		if scheme != "native" {
			run = compress(t, im, scheme)
		}
		r, _ := runProfiled(t, "jumptab/"+scheme, run, nil)
		if err := r.Verify(); err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		p := r.Profile()
		for _, name := range []string{"alpha", "beta", "gamma"} {
			pr := p.ProcByName(name)
			if pr == nil || pr.Instrs == 0 {
				t.Errorf("%s: jump-table target %s got no attributed commits", scheme, name)
			}
			// 30 dispatches over 3 targets: each runs exactly 10 times, two
			// user instructions per visit.
			if pr != nil && pr.Instrs != 20 {
				t.Errorf("%s: %s retired %d user instrs, want 20", scheme, name, pr.Instrs)
			}
		}
		if out := p.ProcByName(OutsideName); out != nil {
			t.Errorf("%s: %d cycles attributed outside the procedure table", scheme, out.Cycles)
		}
	}
}

// TestSwicMidHandlerAttribution forces heavy I-cache churn — a tiny
// direct-mapped cache under a compressed image, where handler swic
// stores and evictions interleave with in-flight service intervals —
// and checks that every attributed line is program code: handler-RAM
// addresses must never appear, because handler commits charge the
// faulting EPC line.
func TestSwicMidHandlerAttribution(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "queens.s"))
	if err != nil {
		t.Fatal(err)
	}
	im := compress(t, assemble(t, string(src)), "dict")
	small := func(cfg *cpu.Config) {
		cfg.ICache = cache.Config{SizeBytes: 128, LineBytes: 32, Ways: 1}
	}
	r, c := runProfiled(t, "queens/dict-small", im, small)
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
	if c.Stats.Exceptions < 10 {
		t.Fatalf("tiny cache took only %d decompression exceptions; churn not exercised", c.Stats.Exceptions)
	}
	p := r.Profile()
	for _, l := range p.Lines {
		if l.Addr >= program.HandlerBase {
			t.Errorf("line 0x%08x is in handler RAM: handler cycles must charge the faulting line", l.Addr)
		}
		if seg := im.SegmentAt(l.Addr); seg == nil || !program.IsCodeSeg(seg.Name) {
			t.Errorf("line 0x%08x attributed outside the image's code segments", l.Addr)
		}
	}
	// All decompression work must have been attributed somewhere.
	if p.Total.DecompCycles() == 0 || p.Total.CPIStack[cpu.CycleHandler] == 0 {
		t.Fatal("no handler cycles attributed despite exceptions")
	}
}

// TestZeroLinesOmittedDeterministically: lines never executed must not
// appear, line records must be strictly ascending, and two identical
// runs must serialize byte-identically.
func TestZeroLinesOmittedDeterministically(t *testing.T) {
	const deadSrc = `
        .text
        .proc main
main:   ori   $a0, $zero, 7
        ori   $v0, $zero, 1
        syscall
        move  $a0, $zero
        ori   $v0, $zero, 10
        syscall
        .endp

        .proc dead
dead:   addiu $t0, $t0, 1
        addiu $t0, $t0, 2
        addiu $t0, $t0, 3
        jr    $ra
        .endp
`
	im := assemble(t, deadSrc)
	serialize := func() []byte {
		r, _ := runProfiled(t, "dead", im, nil)
		if err := r.Verify(); err != nil {
			t.Fatal(err)
		}
		p := r.Profile()
		p.SetIdentity("dead", "native")
		var buf bytes.Buffer
		if err := p.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		dead := p.ProcByName("dead")
		if dead == nil {
			t.Fatal("zero-cost procedures must stay in the table")
		}
		if !dead.Cost.IsZero() {
			t.Fatalf("dead procedure accumulated cost: %+v", dead.Cost)
		}
		for i, l := range p.Lines {
			if l.Cost.IsZero() {
				t.Fatalf("zero-cost line 0x%08x serialized", l.Addr)
			}
			if i > 0 && p.Lines[i-1].Addr >= l.Addr {
				t.Fatalf("line records not strictly ascending at 0x%08x", l.Addr)
			}
		}
		return buf.Bytes()
	}
	a, b := serialize(), serialize()
	if !bytes.Equal(a, b) {
		t.Error("identical runs serialized differently")
	}
}

// TestVerifyCatchesDrift tampers with a bucket and expects Verify to
// name the drifted field.
func TestVerifyCatchesDrift(t *testing.T) {
	im := assemble(t, jumpTableSrc)
	r, _ := runProfiled(t, "drift", im, nil)
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
	for _, lc := range r.lines {
		lc.Cycles++
		break
	}
	err := r.Verify()
	if err == nil {
		t.Fatal("tampered attribution passed Verify")
	}
	if want := "attribution invariant"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Errorf("error %q does not mention %q", err, want)
	}
}
