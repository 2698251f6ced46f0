package cpu_test

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	rtd "repro"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/program"
)

// The functional policy runs straight-line code in a leaf core
// (coreFunctional, generated from run's switch) and hands everything
// else back to the loop. A machine run that way must end exactly as a
// run of the loop alone (cpu.LoopOnly): the same registers, HI/LO, pc,
// FStats, materialised code, memory, output and error text.

// allOps runs every op the core executes, in a loop: loads of each
// width, stores of each width, shifts, ALU ops, HI/LO ops, every branch
// both ways, jumps and links (jalr with rd == rs too), mtc0/mfc0, and
// writes to $zero.
const allOps = `
        .data
words:  .word 0x12345678, 0x8000ffff, 7, -3
buf:    .space 64
        .text
        .proc main
main:   ori   $s0, $zero, 4
        move  $s7, $zero
outer:  la    $t0, words
        lw    $t1, 0($t0)
        lw    $t2, 4($t0)
        lh    $t3, 2($t0)
        lhu   $t4, 6($t0)
        lb    $t5, 3($t0)
        lbu   $t6, 7($t0)
        addu  $s7, $s7, $t3
        xor   $s7, $s7, $t4
        subu  $s7, $s7, $t5
        or    $s7, $s7, $t6
        sll   $t7, $t1, 3
        srl   $t8, $t2, 5
        sra   $t9, $t2, 7
        ori   $a1, $zero, 9
        sllv  $a2, $t1, $a1
        srlv  $a3, $t2, $a1
        srav  $v1, $t2, $a1
        add   $t7, $t7, $t8
        sub   $t7, $t7, $t9
        and   $t8, $a2, $a3
        nor   $t9, $v1, $t8
        slt   $a1, $t2, $t1
        sltu  $a2, $t2, $t1
        addu  $s7, $s7, $t7
        addu  $s7, $s7, $t9
        addu  $s7, $s7, $a1
        addu  $s7, $s7, $a2
        mult  $t1, $t2
        mfhi  $t3
        mflo  $t4
        addu  $s7, $s7, $t3
        multu $t1, $t2
        mfhi  $t5
        addu  $s7, $s7, $t5
        div   $t2, $s0
        mflo  $t6
        mfhi  $t7
        divu  $t1, $s0
        mflo  $t8
        divu  $t1, $zero
        addu  $s7, $s7, $t6
        xor   $s7, $s7, $t8
        addi  $t3, $s7, -5
        slti  $t4, $t3, 100
        sltiu $t5, $t3, 100
        andi  $t6, $t1, 0xff0
        xori  $t7, $t1, 0x5a5a
        lui   $t8, 0x1234
        addu  $s7, $s7, $t6
        addu  $s7, $s7, $t7
        addu  $s7, $s7, $t8
        addu  $zero, $t1, $t2
        lw    $zero, 0($t0)
        la    $t9, buf
        sw    $s7, 0($t9)
        sh    $s7, 6($t9)
        sb    $s7, 9($t9)
        lw    $t1, 4($t9)
        addu  $s7, $s7, $t1
        mtc0  $s7, $c0_cause
        mfc0  $t1, $c0_cause
        addu  $s7, $s7, $t1
        bltz  $t2, n1
        addiu $s7, $s7, 1
n1:     bgez  $t2, n2
        addiu $s7, $s7, 2
n2:     blez  $s0, n3
        addiu $s7, $s7, 3
n3:     bgtz  $s0, n4
        addiu $s7, $s7, 4
n4:     beq   $s0, $t2, n5
        addiu $s7, $s7, 5
n5:     bne   $s0, $s0, n6
        addiu $s7, $s7, 6
n6:     bgez  $s0, m1
        addiu $s7, $s7, 9
m1:     bltz  $s0, m2
        addiu $s7, $s7, 10
m2:     blez  $zero, m3
        addiu $s7, $s7, 11
m3:     bgtz  $zero, m4
        addiu $s7, $s7, 12
m4:     beq   $s0, $s0, m5
        addiu $s7, $s7, 13
m5:     bne   $s0, $t2, m6
        addiu $s7, $s7, 14
m6:     jal   leaf
        addu  $s7, $s7, $v0
        la    $t1, leaf
        jalr  $t1
        la    $t1, same
        jalr  $t1, $t1
same:   addu  $s7, $s7, $t1
        la    $t1, far
        jalr  $zero, $t1
        addiu $s7, $s7, 7
far:    j     tail
        addiu $s7, $s7, 8
tail:   addiu $s0, $s0, -1
        bgtz  $s0, outer
        move  $a0, $s7
        ori   $v0, $zero, 1
        syscall
        andi  $a0, $s7, 0x7f
        ori   $v0, $zero, 10
        syscall
        .endp
        .proc leaf
leaf:   sll   $v0, $s0, 4
        jr    $ra
        .endp
`

// selfMod stores into its own code (each store width) and into handler
// RAM, runs a routine there and another from data memory (outside
// every window), and swics a word of its code.
const selfMod = `
        .data
buf:    .space 32
        .text
        .proc main
main:   ori   $s0, $zero, 3
loop:   la    $t0, patch
        lw    $t1, 0($t0)
        addiu $t1, $t1, 1
        sw    $t1, 0($t0)
        nop
patch:  ori   $s1, $zero, 100
        addu  $s2, $s2, $s1
        la    $t0, patchb
        lbu   $t1, 0($t0)
        addiu $t1, $t1, 1
        sb    $t1, 0($t0)
patchb: ori   $s5, $zero, 50
        la    $t0, patchh
        lhu   $t1, 0($t0)
        addiu $t1, $t1, 3
        sh    $t1, 0($t0)
patchh: ori   $s6, $zero, 70
        addu  $s2, $s2, $s5
        addu  $s2, $s2, $s6
        la    $t0, shadow
        lw    $t1, 0($t0)
        swic  $t1, 0($t0)
shadow: addiu $s3, $s3, 1
        la    $t0, hfun
        lw    $t1, 4($t0)
        addiu $t1, $t1, 2
        sw    $t1, 4($t0)
        jalr  $t0
        addu  $s2, $s2, $v1
        la    $t0, droutine
        la    $t2, buf
        lw    $t1, 0($t0)
        sw    $t1, 0($t2)
        lw    $t1, 4($t0)
        sw    $t1, 4($t2)
        jalr  $t2
        addiu $s0, $s0, -1
        bgtz  $s0, loop
        addu  $a0, $s2, $s3
        addu  $a0, $a0, $s4
        ori   $v0, $zero, 1
        syscall
        andi  $a0, $a0, 0x7f
        ori   $v0, $zero, 10
        syscall
        .endp
        .proc droutine
droutine: addiu $s4, $s4, 5
        jr    $ra
        .endp
        .section .decompressor, 0x7F000000
        .proc hfun
hfun:   nop
        ori   $v1, $zero, 1
        jr    $ra
        .endp
`

// straight is a few straight-line instructions the core runs before
// the fragment that follows it.
const straight = `
        ori   $t2, $zero, 5
        addu  $t3, $t2, $t2
        sll   $t4, $t3, 2
`

// coreEnd is what a functional run leaves observable.
type coreEnd struct {
	err    string
	out    string
	state  cpu.MachineState
	mem    mem.State
	fstore map[uint32]uint32
}

// runEnd builds a machine for im under cfg, with or without the core,
// and drives it.
func runEnd(t *testing.T, im *program.Image, cfg cpu.Config, loopOnly bool, drive func(*cpu.CPU) error) coreEnd {
	t.Helper()
	c, err := cpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if loopOnly {
		cpu.LoopOnly(c)
	}
	var out bytes.Buffer
	c.Out = &out
	if err := c.Load(im); err != nil {
		t.Fatal(err)
	}
	var e coreEnd
	if err := drive(c); err != nil {
		e.err = err.Error()
	}
	e.out, e.state, e.mem, e.fstore = out.String(), c.CaptureState(), c.Mem.Snapshot(), c.FStoreSnapshot()
	return e
}

// runToEnd is a whole functional run.
func runToEnd(c *cpu.CPU) error {
	_, err := c.RunFunctionalFor(math.MaxUint64)
	return err
}

// compareCore runs im both ways and fails on any difference. It
// returns the core's end.
func compareCore(t *testing.T, label string, im *program.Image, cfg cpu.Config, drive func(*cpu.CPU) error) coreEnd {
	t.Helper()
	got, want := runEnd(t, im, cfg, false, drive), runEnd(t, im, cfg, true, drive)
	switch {
	case got.err != want.err:
		t.Errorf("%s: error %q, loop alone %q", label, got.err, want.err)
	case got.out != want.out:
		t.Errorf("%s: output %q, loop alone %q", label, got.out, want.out)
	case !reflect.DeepEqual(got.state, want.state):
		t.Errorf("%s: machine state\n%+v\nloop alone\n%+v", label, got.state, want.state)
	case !reflect.DeepEqual(got.mem, want.mem):
		t.Errorf("%s: memory differs from the loop alone's", label)
	case !reflect.DeepEqual(got.fstore, want.fstore):
		t.Errorf("%s: materialised code %v, loop alone %v", label, got.fstore, want.fstore)
	}
	return got
}

func assemble(t *testing.T, src string) *program.Image {
	t.Helper()
	im, err := rtd.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// withExit wraps a fragment in main with an exit(0) epilogue.
func withExit(body string) string {
	return ".text\n.proc main\nmain:\n" + body + `
        move  $a0, $zero
        ori   $v0, $zero, 10
        syscall
        .endp
`
}

// coreImages are sort as TestBulkChargingOracle builds it (native,
// dict and CodePack with and without the shadow register file, and
// dict on the hardware decompressor) and allOps native and compressed:
// the core runs the native decode store, the compressed one and
// handler RAM, where the handlers run mfc0 and swic (and, without the
// shadow register file, load and store on $sp).
func coreImages(t *testing.T) []loopImage {
	t.Helper()
	imgs := loopImages(t)
	native := assemble(t, allOps)
	imgs = append(imgs, loopImage{name: "allops", im: native})
	for _, o := range []rtd.Options{
		{Scheme: rtd.SchemeDict},
		{Scheme: rtd.SchemeDict, ShadowRF: true},
		{Scheme: rtd.SchemeCodePack},
	} {
		res, err := rtd.Compress(native, o)
		if err != nil {
			t.Fatal(err)
		}
		imgs = append(imgs, loopImage{name: fmt.Sprintf("allops/%s,rf=%v", o.Scheme, o.ShadowRF), im: res.Image})
	}
	return imgs
}

func TestCoreMatchesLoop(t *testing.T) {
	for _, li := range coreImages(t) {
		cfg := cpu.DefaultConfig()
		cfg.MaxInstr, cfg.HardwareDecompress = 1_000_000, li.hw
		e := compareCore(t, li.name, li.im, cfg, runToEnd)
		if e.err != "" || !e.state.Halted {
			t.Errorf("%s: did not halt: %s", li.name, e.err)
		}
	}
	cfg := cpu.DefaultConfig()
	cfg.MaxInstr = 1_000_000
	e := compareCore(t, "selfmod", assemble(t, selfMod), cfg, runToEnd)
	if e.err != "" || e.out == "" {
		t.Errorf("selfmod: err %q, output %q", e.err, e.out)
	}
}

// TestCoreHandsBackFaults: an access the loop must refuse, and an op
// only the loop runs, end the run with the loop's error and the machine
// as the loop alone leaves it. The accesses fault on a loop's third
// pass, once the core runs its records; handler RAM is decoded at load,
// so the core meets the ops placed there on their first fetch.
func TestCoreHandsBackFaults(t *testing.T) {
	cfg := cpu.DefaultConfig()
	cfg.MaxInstr = 100_000
	thirdPass := func(access string) string {
		return withExit(`
        ori   $t5, $zero, 3
        lui   $t0, 0x2000
again:` + straight + `
        addiu $t5, $t5, -1
        sltiu $t6, $t5, 1
        addu  $t1, $t0, $t6
        ` + access + ` $t7, 0($t1)
        bgtz  $t5, again`)
	}
	runaway := func(store string) string {
		return withExit(straight + `
        lui   $t0, 0x4000
        lui   $t1, 1
more:   ` + store + `  $t2, 0($t0)
        addu  $t0, $t0, $t1
        b     more`)
	}
	inHandlerRAM := func(body string) string {
		return withExit(straight+"la $t0, hfun\njalr $t0") + `
        .section .decompressor, 0x7F000000
        .proc hfun
hfun:   addu  $t2, $t2, $t2
        ` + body + `
        .endp
`
	}
	for _, c := range []struct{ name, src, want string }{
		{"lh", thirdPass("lh"), "unaligned lh"},
		{"lhu", thirdPass("lhu"), "unaligned lhu"},
		{"lw", thirdPass("lw"), "unaligned lw"},
		{"sh", thirdPass("sh"), "unaligned sh"},
		{"sw", thirdPass("sw"), "unaligned sw"},
		{"swic", thirdPass("swic"), "unaligned swic"},
		{"sb-backed", runaway("sb"), mem.ErrBacked.Error()},
		{"sh-backed", runaway("sh"), mem.ErrBacked.Error()},
		{"sw-backed", runaway("sw"), mem.ErrBacked.Error()},
		{"break", inHandlerRAM("break"), "break at"},
		{"syscall", inHandlerRAM("ori $v0, $zero, 999\nsyscall"), "unknown syscall"},
		{"iret", inHandlerRAM("iret"), "iret outside handler"},
		{"illegal", inHandlerRAM(".word 0xFC000000"), "illegal opcode"},
		{"first-fetch", withExit(straight + "break"), "break at"},
	} {
		e := compareCore(t, c.name, assemble(t, c.src), cfg, runToEnd)
		if !strings.Contains(e.err, c.want) {
			t.Errorf("%s: error %q, want it to name %q", c.name, e.err, c.want)
		}
	}
}

// TestCoreFunctionalBreak: the core keeps FunctionalBreak's corruption
// of the handler's swic stores, exactly as the loop makes it.
func TestCoreFunctionalBreak(t *testing.T) {
	im := imageNamed(t, coreImages(t), "dict+rf")
	cfg := cpu.DefaultConfig()
	cfg.MaxInstr = 100_000
	clean := compareCore(t, "clean", im, cfg, runToEnd)
	cfg.FunctionalBreak = true
	broken := compareCore(t, "broken", im, cfg, runToEnd)
	if reflect.DeepEqual(clean.fstore, broken.fstore) {
		t.Error("FunctionalBreak left the materialised code as it was")
	}
}

// imageNamed is the image of imgs called name.
func imageNamed(t *testing.T, imgs []loopImage, name string) *program.Image {
	t.Helper()
	for _, li := range imgs {
		if li.name == name {
			return li.im
		}
	}
	t.Fatalf("no image %s", name)
	return nil
}

// TestCoreLimits: a budget or a RunFunctionalFor target ends a run
// where the loop alone ends it, whichever retirement it falls on: in
// the core's straight-line code, at its limit or in the handler.
func TestCoreLimits(t *testing.T) {
	imgs := coreImages(t)
	for _, name := range []string{"native", "dict", "allops/codepack,rf=false"} {
		im := imageNamed(t, imgs, name)
		cfg := cpu.DefaultConfig()
		cfg.MaxInstr = 1_000_000
		total := runEnd(t, im, cfg, true, runToEnd).state.FStats
		n := total.Instrs + total.HandlerInstrs
		if name != "native" {
			n = min(n, 700) // the sweep covers the first activations
		}
		for b := uint64(1); b <= n+1; b++ {
			cfg.MaxInstr = b
			compareCore(t, fmt.Sprintf("%s/budget %d", name, b), im, cfg, runToEnd)
		}
		cfg.MaxInstr = 1_000_000
		for k := uint64(1); k <= 24; k++ {
			compareCore(t, fmt.Sprintf("%s/steps of %d", name, k), im, cfg, func(c *cpu.CPU) error {
				for {
					halted, err := c.RunFunctionalFor(k)
					if halted || err != nil {
						return err
					}
				}
			})
		}
	}
}
