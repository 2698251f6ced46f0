package cpu

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/program"
)

// exitWith wraps a fragment with an exit(code-in-$a0) epilogue.
func exitWith(body string) string {
	return ".text\n.proc main\nmain:\n" + body + `
        ori   $v0, $zero, 10
        syscall
        .endp
`
}

func TestMtc0Mfc0RoundTrip(t *testing.T) {
	_, code, _ := run(t, exitWith(`
        li    $t0, 0x12340000
        mtc0  $t0, $c0_dict
        mfc0  $t1, $c0_dict
        subu  $a0, $t1, $t0
`))
	if code != 0 {
		t.Fatalf("mtc0/mfc0 round trip failed: %d", code)
	}
}

func TestSltVariants(t *testing.T) {
	_, code, _ := run(t, exitWith(`
        li    $t0, -1
        ori   $t1, $zero, 1
        slt   $t2, $t0, $t1      # signed: -1 < 1 -> 1
        sltu  $t3, $t0, $t1      # unsigned: 0xFFFFFFFF < 1 -> 0
        slti  $t4, $t0, 0        # -1 < 0 -> 1
        sltiu $t5, $t1, 2        # 1 < 2 -> 1
        addu  $a0, $t2, $t4
        addu  $a0, $a0, $t5
        addiu $a0, $a0, -3       # expect 0
        addu  $a0, $a0, $t3      # plus 0
`))
	if code != 0 {
		t.Fatalf("slt semantics wrong: %d", code)
	}
}

func TestLogicalOps(t *testing.T) {
	_, code, _ := run(t, exitWith(`
        li    $t0, 0xF0F0F0F0
        li    $t1, 0x0F0F0F0F
        or    $t2, $t0, $t1      # 0xFFFFFFFF
        and   $t3, $t0, $t1      # 0
        nor   $t4, $t0, $t1      # 0
        xor   $t5, $t0, $t1      # 0xFFFFFFFF
        xor   $t6, $t2, $t5      # 0
        addu  $a0, $t3, $t4
        addu  $a0, $a0, $t6
`))
	if code != 0 {
		t.Fatalf("logical ops wrong: %d", code)
	}
}

func TestMultuDivu(t *testing.T) {
	_, code, out := run(t, exitWith(`
        li    $t0, 0x80000000
        ori   $t1, $zero, 2
        multu $t0, $t1
        mfhi  $a0                # expect 1
        ori   $v0, $zero, 1
        syscall
        li    $t2, 100
        ori   $t3, $zero, 8
        divu  $t2, $t3
        mflo  $a0                # 12
        ori   $v0, $zero, 1
        syscall
        mfhi  $a0                # 4
        ori   $v0, $zero, 1
        syscall
        move  $a0, $zero
`))
	if code != 0 || out != "1124" {
		t.Fatalf("multu/divu wrong: code=%d out=%q", code, out)
	}
}

func TestDivByZeroIsQuiet(t *testing.T) {
	// MIPS leaves HI/LO undefined on divide-by-zero; we define them as
	// unchanged, and the program must not trap.
	_, code, _ := run(t, exitWith(`
        ori   $t0, $zero, 7
        move  $t1, $zero
        div   $t0, $t1
        divu  $t0, $t1
        move  $a0, $zero
`))
	if code != 0 {
		t.Fatal("div by zero must not trap")
	}
}

func TestBltzBgez(t *testing.T) {
	_, code, _ := run(t, exitWith(`
        li    $t0, -5
        move  $a0, $zero
        bltz  $t0, n1
        ori   $a0, $zero, 1      # must be skipped
n1:     bgez  $t0, bad
        ori   $t1, $zero, 3
        bgez  $t1, n2
bad:    ori   $a0, $zero, 1
n2:
`))
	if code != 0 {
		t.Fatalf("bltz/bgez wrong: %d", code)
	}
}

func TestJalrLinksCorrectly(t *testing.T) {
	_, code, _ := run(t, `
        .text
        .proc main
main:   la    $t0, target
        jalr  $t1, $t0
after:  move  $a0, $zero
        ori   $v0, $zero, 10
        syscall
        .endp
        .proc target
target: la    $t2, after
        beq   $t1, $t2, good
        ori   $a0, $zero, 1
        ori   $v0, $zero, 10
        syscall
good:   jr    $t1
        .endp
`)
	if code != 0 {
		t.Fatal("jalr link register wrong")
	}
}

func errRun(t *testing.T, src string) error {
	t.Helper()
	im, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := New(DefaultConfig())
	c.Cfg.MaxInstr = 100000
	if err := c.Load(im); err != nil {
		t.Fatal(err)
	}
	_, err = c.Run()
	return err
}

func TestUnalignedAccessErrors(t *testing.T) {
	cases := []struct {
		name string
		body string
	}{
		{"lw", "li $t0, 0x20000001\nlw $t1, 0($t0)"},
		{"lh", "li $t0, 0x20000001\nlh $t1, 0($t0)"},
		{"lhu", "li $t0, 0x20000003\nlhu $t1, 0($t0)"},
		{"sw", "li $t0, 0x20000002\nsw $t1, 0($t0)"},
		{"sh", "li $t0, 0x20000001\nsh $t1, 0($t0)"},
	}
	for _, c := range cases {
		err := errRun(t, exitWith(c.body))
		if err == nil || !strings.Contains(err.Error(), "unaligned") {
			t.Errorf("%s: err = %v", c.name, err)
		}
	}
}

func TestUnknownSyscallErrors(t *testing.T) {
	err := errRun(t, exitWith("ori $v0, $zero, 999\nsyscall"))
	if err == nil || !strings.Contains(err.Error(), "unknown syscall") {
		t.Fatalf("err = %v", err)
	}
}

func TestBreakErrors(t *testing.T) {
	err := errRun(t, exitWith("break"))
	if err == nil || !strings.Contains(err.Error(), "break") {
		t.Fatalf("err = %v", err)
	}
}

func TestIllegalInstructionErrors(t *testing.T) {
	im, err := asm.Assemble(exitWith("nop"))
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite the nop with an illegal encoding (opcode 0x3F).
	text := im.Segments[0]
	text.SetWord(im.Entry, 0xFC000000)
	c, _ := New(DefaultConfig())
	if err := c.Load(im); err != nil {
		t.Fatal(err)
	}
	_, err = c.Run()
	if err == nil || !strings.Contains(err.Error(), "illegal opcode") {
		t.Fatalf("err = %v", err)
	}
}

func TestZeroRegisterIsImmutable(t *testing.T) {
	_, code, _ := run(t, exitWith(`
        ori   $zero, $zero, 0xFFFF
        addiu $zero, $zero, 100
        move  $a0, $zero
`))
	if code != 0 {
		t.Fatal("$zero must stay zero")
	}
}

func TestTraceHookSeesInstructions(t *testing.T) {
	im, err := asm.Assemble(exitWith("nop\nnop"))
	if err != nil {
		t.Fatal(err)
	}
	c, _ := New(DefaultConfig())
	var got []uint32
	c.Trace = func(pc, w uint32, handler bool) {
		got = append(got, w)
		if handler {
			t.Error("no handler in this test")
		}
	}
	if err := c.Load(im); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 { // nop nop ori syscall
		t.Fatalf("trace saw %d instructions", len(got))
	}
	if got[0] != isa.NOP {
		t.Fatalf("first traced word %#x", got[0])
	}
}

// callProgram calls callee by jal and by jalr, five times each; its
// .text sits at CompBase so buildCopyCompressed can compress it.
const callProgram = `
        .text 0x00800000
        .proc main
main:   ori   $s0, $zero, 5
loop:   jal   callee
        la    $t9, callee
        jalr  $t9
        addiu $s0, $s0, -1
        bgtz  $s0, loop
        move  $a0, $zero
        ori   $v0, $zero, 10
        syscall
        .endp
        .proc callee
callee: jr    $ra
        .endp
`

// callingHandler is copyHandler with a jal and a jalr inside the
// handler: calls the handler makes are not the program's.
const callingHandler = `
        .section .decompressor, 0x7F000000
        .proc __calling_handler
__calling_handler:
        jal   hbase              # k1 = line base
        la    $t4, hnop
        jalr  $t4
        mfc0  $k0, $c0_dbase
        subu  $t0, $k1, $k0
        mfc0  $t1, $c0_dict
        addu  $t1, $t1, $t0
        addiu $t2, $k1, 32
copy:   lw    $t3, 0($t1)
        swic  $t3, 0($k1)
        addiu $t1, $t1, 4
        addiu $k1, $k1, 4
        bne   $k1, $t2, copy
        iret
hbase:  mfc0  $k1, $c0_badva
        srl   $k1, $k1, 5
        sll   $k1, $k1, 5
        jr    $ra
hnop:   jr    $ra
        .endp
`

// TestCallEdges checks the call counts CallEdges exposes: the detailed
// policy counts every user jal and jalr by [call site, target]; a call
// inside the decompression handler counts nothing, and neither does any
// call under the functional or warm policy.
func TestCallEdges(t *testing.T) {
	nat, err := asm.Assemble(callProgram)
	if err != nil {
		t.Fatal(err)
	}
	callee := nat.Symbols["callee"]
	jalPC := nat.Symbols["loop"]
	want := map[[2]uint32]uint64{
		{jalPC, callee}:      5, // jal
		{jalPC + 12, callee}: 5, // jalr, after the two words of la
	}
	edges := func(t *testing.T, im *program.Image, functional bool) map[[2]uint32]uint64 {
		t.Helper()
		c, _ := New(DefaultConfig())
		calls := c.CallEdges()
		if err := c.Load(im); err != nil {
			t.Fatal(err)
		}
		if _, err := runPolicy(c, functional); err != nil {
			t.Fatal(err)
		}
		return calls
	}

	t.Run("detailed", func(t *testing.T) {
		if got := edges(t, nat, false); !reflect.DeepEqual(got, want) {
			t.Errorf("edges %v, want %v", got, want)
		}
	})
	t.Run("handler", func(t *testing.T) {
		im := buildCopyCompressed(t, callProgram, true)
		h, err := asm.Assemble(callingHandler)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range im.Segments {
			if s.Name == program.SegDecompressor {
				im.Segments[i] = h.Segment(program.SegDecompressor)
			}
		}
		c, code := runImage(t, im)
		if code != 0 || c.Stats.Exceptions == 0 {
			t.Fatalf("exit %d after %d exceptions, want 0 after some", code, c.Stats.Exceptions)
		}
		if got := edges(t, im, false); !reflect.DeepEqual(got, want) {
			t.Errorf("edges %v, want the user program's %v", got, want)
		}
	})
	t.Run("functional", func(t *testing.T) {
		if got := edges(t, nat, true); len(got) != 0 {
			t.Errorf("edges %v, want none", got)
		}
	})
	t.Run("warm", func(t *testing.T) {
		c, _ := New(DefaultConfig())
		calls := c.CallEdges()
		if err := c.Load(nat); err != nil {
			t.Fatal(err)
		}
		// One detailed iteration brings every line in; then the warm
		// policy runs the rest without a miss.
		if _, err := c.RunDetailedFor(8); err != nil {
			t.Fatal(err)
		}
		clear(calls)
		halted, pending, err := c.RunFunctionalSampled(1000)
		if err != nil || !halted || pending {
			t.Fatalf("warm run: halted %v, pending %v, err %v; want a miss-free run to the exit", halted, pending, err)
		}
		if c.FStats.Instrs < 20 {
			t.Fatalf("warm run retired %d instructions, want the remaining iterations", c.FStats.Instrs)
		}
		if len(calls) != 0 {
			t.Errorf("edges %v, want none", calls)
		}
	})
}
