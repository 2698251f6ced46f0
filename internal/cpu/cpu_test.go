package cpu

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/asm"
)

// runPolicy runs c to the end on the functional policy, as
// fastpath.Functional does, or else on the detailed one (Run).
func runPolicy(c *CPU, functional bool) (int32, error) {
	if !functional {
		return c.Run()
	}
	if _, err := c.RunFunctionalFor(math.MaxUint64); err != nil {
		return -1, err
	}
	_, code := c.Halted()
	return code, nil
}

func run(t *testing.T, src string) (*CPU, int32, string) {
	t.Helper()
	im, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	c.Out = &out
	c.Cfg.MaxInstr = 10_000_000
	if err := c.Load(im); err != nil {
		t.Fatal(err)
	}
	code, err := c.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return c, code, out.String()
}

func TestArithmeticAndExit(t *testing.T) {
	_, code, _ := run(t, `
        .text
        .proc main
main:   ori   $t0, $zero, 6
        ori   $t1, $zero, 7
        mult  $t0, $t1
        mflo  $a0
        ori   $v0, $zero, 10
        syscall
        .endp
`)
	if code != 42 {
		t.Fatalf("exit code = %d, want 42", code)
	}
}

func TestLoopAndOutput(t *testing.T) {
	c, code, out := run(t, `
        .text
        .proc main
main:   ori   $s0, $zero, 5
        move  $s1, $zero
loop:   addu  $s1, $s1, $s0
        addiu $s0, $s0, -1
        bgtz  $s0, loop
        move  $a0, $s1
        ori   $v0, $zero, 1
        syscall
        move  $a0, $zero
        ori   $v0, $zero, 10
        syscall
        .endp
`)
	if code != 0 || out != "15" {
		t.Fatalf("code=%d out=%q", code, out)
	}
	if c.Stats.Instrs == 0 || c.Stats.Cycles < c.Stats.Instrs {
		t.Fatalf("stats %+v", c.Stats)
	}
}

func TestRecursionAndMemory(t *testing.T) {
	_, code, _ := run(t, `
        .text
        .proc main
main:   ori   $a0, $zero, 10
        jal   fib
        move  $a0, $v0
        ori   $v0, $zero, 10
        syscall
        .endp
        .proc fib
fib:    slti  $t0, $a0, 2
        beq   $t0, $zero, rec
        move  $v0, $a0
        jr    $ra
rec:    addiu $sp, $sp, -12
        sw    $ra, 8($sp)
        sw    $a0, 4($sp)
        addiu $a0, $a0, -1
        jal   fib
        sw    $v0, 0($sp)
        lw    $a0, 4($sp)
        addiu $a0, $a0, -2
        jal   fib
        lw    $t0, 0($sp)
        addu  $v0, $v0, $t0
        lw    $ra, 8($sp)
        addiu $sp, $sp, 12
        jr    $ra
        .endp
`)
	if code != 55 {
		t.Fatalf("fib(10) = %d, want 55", code)
	}
}

func TestLoadStoreWidths(t *testing.T) {
	_, code, _ := run(t, `
        .data
b:      .byte 0x80
        .align 2
h:      .half 0x8000
        .align 4
w:      .word 0x80000000
        .text
        .proc main
main:   la    $t9, b
        lb    $t0, 0($t9)      # sign-extended: 0xFFFFFF80
        lbu   $t1, 0($t9)      # zero-extended: 0x80
        la    $t9, h
        lh    $t2, 0($t9)      # 0xFFFF8000
        lhu   $t3, 0($t9)      # 0x8000
        la    $t9, w
        lw    $t4, 0($t9)
        # verify: t0+t1 = 0xFFFFFF80+0x80 = 0 mod 2^32
        addu  $t5, $t0, $t1
        bne   $t5, $zero, fail
        # t2 + t3 = 0xFFFF8000 + 0x8000 = 0 mod 2^32
        addu  $t5, $t2, $t3
        bne   $t5, $zero, fail
        # t4 + t4 = 0
        addu  $t5, $t4, $t4
        bne   $t5, $zero, fail
        # store round trip
        la    $t9, w
        li    $t6, 0x12345678
        sw    $t6, 0($t9)
        lw    $t7, 0($t9)
        bne   $t7, $t6, fail
        sh    $t6, 0($t9)
        lhu   $t8, 0($t9)
        ori   $t5, $zero, 0x5678
        bne   $t8, $t5, fail
        sb    $t6, 0($t9)
        lbu   $t8, 0($t9)
        ori   $t5, $zero, 0x78
        bne   $t8, $t5, fail
        move  $a0, $zero
        ori   $v0, $zero, 10
        syscall
fail:   ori   $a0, $zero, 1
        ori   $v0, $zero, 10
        syscall
        .endp
`)
	if code != 0 {
		t.Fatal("width/extension semantics wrong")
	}
}

func TestShiftVariants(t *testing.T) {
	_, code, _ := run(t, `
        .text
        .proc main
main:   li    $t0, 0x80000000
        sra   $t1, $t0, 31      # 0xFFFFFFFF
        addiu $t2, $t1, 1
        bne   $t2, $zero, fail
        srl   $t1, $t0, 31      # 1
        ori   $t3, $zero, 1
        bne   $t1, $t3, fail
        ori   $t4, $zero, 4
        sllv  $t5, $t3, $t4     # 16
        ori   $t6, $zero, 16
        bne   $t5, $t6, fail
        srav  $t7, $t0, $t4     # 0xF8000000
        lui   $t8, 0xF800
        bne   $t7, $t8, fail
        move  $a0, $zero
        ori   $v0, $zero, 10
        syscall
fail:   ori   $a0, $zero, 1
        ori   $v0, $zero, 10
        syscall
        .endp
`)
	if code != 0 {
		t.Fatal("shift semantics wrong")
	}
}

func TestDivAndHex(t *testing.T) {
	_, code, out := run(t, `
        .text
        .proc main
main:   li    $t0, -100
        ori   $t1, $zero, 7
        div   $t0, $t1
        mflo  $a0              # -14
        ori   $v0, $zero, 1
        syscall
        ori   $a0, $zero, ','
        ori   $v0, $zero, 11
        syscall
        mfhi  $a0              # -2
        ori   $v0, $zero, 1
        syscall
        move  $a0, $zero
        ori   $v0, $zero, 10
        syscall
        .endp
`)
	if code != 0 || out != "-14,-2" {
		t.Fatalf("out = %q", out)
	}
}

func TestPrintString(t *testing.T) {
	_, _, out := run(t, `
        .data
msg:    .asciiz "hello, world"
        .text
        .proc main
main:   la    $a0, msg
        ori   $v0, $zero, 4
        syscall
        move  $a0, $zero
        ori   $v0, $zero, 10
        syscall
        .endp
`)
	if out != "hello, world" {
		t.Fatalf("out = %q", out)
	}
}

func TestTimingAccounting(t *testing.T) {
	c, _, _ := run(t, `
        .text
        .proc main
main:   li    $t0, 1000
loop:   addiu $t0, $t0, -1
        bgtz  $t0, loop
        move  $a0, $zero
        ori   $v0, $zero, 10
        syscall
        .endp
`)
	s := c.Stats
	if s.Instrs < 2000 {
		t.Fatalf("instrs = %d", s.Instrs)
	}
	// Tight loop in cache: CPI must be close to 1 (a few misses + the
	// final mispredict).
	cpi := float64(s.Cycles) / float64(s.Instrs)
	if cpi > 1.2 {
		t.Fatalf("CPI = %.2f, want near 1", cpi)
	}
	if s.IMissNative == 0 {
		t.Fatal("cold misses expected")
	}
	if s.IMissCompressed != 0 || s.Exceptions != 0 {
		t.Fatal("no compressed region in this test")
	}
}

func TestIretOutsideHandlerErrors(t *testing.T) {
	im, err := asm.Assemble(`
        .text
        .proc main
main:   iret
        .endp
`)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := New(DefaultConfig())
	if err := c.Load(im); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err == nil || !strings.Contains(err.Error(), "iret outside handler") {
		t.Fatalf("err = %v", err)
	}
}

func TestFetchUnmappedErrors(t *testing.T) {
	im, err := asm.Assemble(`
        .text
        .proc main
main:   li   $t0, 0x30000000
        jr   $t0
        .endp
`)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := New(DefaultConfig())
	if err := c.Load(im); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err == nil || !strings.Contains(err.Error(), "unmapped") {
		t.Fatalf("err = %v", err)
	}
}

func TestInstructionBudget(t *testing.T) {
	im, err := asm.Assemble(`
        .text
        .proc main
main:   b main
        .endp
`)
	if err != nil {
		t.Fatal(err)
	}
	// Both policies stop at exactly MaxInstr retirements, and an entry
	// point called with the budget spent retires nothing more.
	for _, functional := range []bool{false, true} {
		c, _ := New(DefaultConfig())
		c.Cfg.MaxInstr = 1000
		if err := c.Load(im); err != nil {
			t.Fatal(err)
		}
		if _, err := runPolicy(c, functional); err == nil || !strings.Contains(err.Error(), "budget") {
			t.Fatalf("functional=%v: err = %v", functional, err)
		}
		for _, again := range []func() error{
			func() error { _, err := runPolicy(c, functional); return err },
			func() error { _, err := c.RunDetailedFor(10); return err },
			func() error { _, err := c.RunFunctionalFor(10); return err },
		} {
			if err := again(); err == nil || !strings.Contains(err.Error(), "budget") {
				t.Fatalf("functional=%v: spent budget, err = %v", functional, err)
			}
		}
		if n := c.Stats.Instrs + c.FStats.Instrs; n != 1000 {
			t.Errorf("functional=%v: %d instructions retired under a budget of 1000", functional, n)
		}
	}
}
