package cpu

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/program"
)

// copyHandler is a trivial decompressor: it "decompresses" a missed line
// by copying it word-by-word from a backed golden copy whose base is in
// $c0_dict. It exercises the full exception / swic / iret machinery.
const copyHandler = `
        .section .decompressor, 0x7F000000
        .proc __copy_handler
__copy_handler:
        mfc0  $k1, $c0_badva
        srl   $k1, $k1, 5
        sll   $k1, $k1, 5        # k1 = line base
        mfc0  $k0, $c0_dbase
        subu  $t0, $k1, $k0      # offset into region
        mfc0  $t1, $c0_dict      # golden copy base
        addu  $t1, $t1, $t0
        addiu $t2, $k1, 32       # loop stop
copy:   lw    $t3, 0($t1)
        swic  $t3, 0($k1)
        addiu $t1, $t1, 4
        addiu $k1, $k1, 4
        bne   $k1, $t2, copy
        iret
        .endp
`

// buildCopyCompressed assembles src as a native image, then rebuilds it as
// a "copy-compressed" image: .text becomes a virtual segment at CompBase,
// a golden copy is placed in backed memory, and the copy handler fills
// lines on demand.
func buildCopyCompressed(t *testing.T, src string, shadowRF bool) *program.Image {
	t.Helper()
	return buildWithHandler(t, src, copyHandler, shadowRF)
}

// buildWithHandler is buildCopyCompressed with the handler assembled
// from handlerSrc, which must fill lines as copyHandler does.
func buildWithHandler(t *testing.T, src, handlerSrc string, shadowRF bool) *program.Image {
	t.Helper()
	native, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	handler, err := asm.Assemble(handlerSrc)
	if err != nil {
		t.Fatal(err)
	}
	text := native.Segment(program.SegText)
	if text.Base != program.CompBase {
		t.Fatalf("test source must place .text at CompBase, got %#x", text.Base)
	}
	goldenBase := uint32(program.CompDataBase)
	im := &program.Image{
		Entry:   native.Entry,
		Symbols: native.Symbols,
		Procs:   native.Procs,
		Compress: &program.CompressionInfo{
			Scheme:    "copy",
			CompStart: text.Base,
			CompEnd:   text.End(),
			DictBase:  goldenBase,
			ShadowRF:  shadowRF,
		},
	}
	for _, s := range native.Segments {
		if s.Name == program.SegText {
			im.Segments = append(im.Segments,
				&program.Segment{Name: program.SegText, Base: s.Base, Data: s.Data, Virtual: true},
				&program.Segment{Name: program.SegDict, Base: goldenBase, Data: s.Data})
			continue
		}
		im.Segments = append(im.Segments, s)
	}
	im.Segments = append(im.Segments, handler.Segment(program.SegDecompressor))
	return im
}

const excProgram = `
        .text 0x00800000
        .proc main
main:   ori   $s0, $zero, 200
        move  $s1, $zero
loop:   jal   work
        addu  $s1, $s1, $v0
        addiu $s0, $s0, -1
        bgtz  $s0, loop
        andi  $a0, $s1, 0x7F
        ori   $v0, $zero, 10
        syscall
        .endp
        .proc work
work:   ori   $t0, $zero, 4
        move  $v0, $zero
w1:     addu  $v0, $v0, $t0
        addiu $t0, $t0, -1
        bgtz  $t0, w1
        jr    $ra
        .endp
`

func runImage(t *testing.T, im *program.Image) (*CPU, int32) {
	t.Helper()
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c.Cfg.MaxInstr = 10_000_000
	if err := c.Load(im); err != nil {
		t.Fatal(err)
	}
	code, err := c.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return c, code
}

func TestDecompressionExceptionPath(t *testing.T) {
	// Native reference run (same code, but .text backed at CompBase).
	nat, err := asm.Assemble(excProgram)
	if err != nil {
		t.Fatal(err)
	}
	cNat, codeNat := runImage(t, nat)

	im := buildCopyCompressed(t, excProgram, true)
	cCmp, codeCmp := runImage(t, im)

	if codeNat != codeCmp {
		t.Fatalf("architectural divergence: native exit %d, compressed exit %d", codeNat, codeCmp)
	}
	if cCmp.Stats.Exceptions == 0 || cCmp.Stats.IMissCompressed == 0 {
		t.Fatalf("no exceptions taken: %+v", cCmp.Stats)
	}
	if cCmp.Stats.HandlerInstrs == 0 {
		t.Fatal("handler executed no instructions")
	}
	if cCmp.Stats.Cycles <= cNat.Stats.Cycles {
		t.Fatalf("compressed run (%d cycles) must be slower than native (%d)",
			cCmp.Stats.Cycles, cNat.Stats.Cycles)
	}
	// User instruction counts must match exactly: decompression is
	// transparent to the program.
	if cCmp.Stats.Instrs != cNat.Stats.Instrs {
		t.Fatalf("user instrs differ: %d vs %d", cCmp.Stats.Instrs, cNat.Stats.Instrs)
	}
}

func TestHandlerFilledLinesMatchGolden(t *testing.T) {
	im := buildCopyCompressed(t, excProgram, true)
	c, _ := runImage(t, im)
	text := im.Segment(program.SegText)
	// Every I-cache line in the compressed region must be byte-identical
	// to the golden program text.
	checked := 0
	for addr := text.Base; addr < text.End(); addr += 32 {
		s := c.IC.Slot(addr)
		if s < 0 {
			continue
		}
		line := c.IC.SlotData(s)
		checked++
		for i, b := range line {
			a := addr + uint32(i)
			if a >= text.End() {
				break
			}
			if b != text.Data[a-text.Base] {
				t.Fatalf("cache line at %#x byte %d = %#x, want %#x", addr, i, b, text.Data[a-text.Base])
			}
		}
	}
	if checked == 0 {
		t.Fatal("no compressed lines present in the I-cache")
	}
}

// rfProgram is laid out so that $t0 is set in one I-cache line and used in
// the next: the first-touch exception on the second line lands while $t0
// is live, so a handler that clobbers registers corrupts the result.
const rfProgram = `
        .text 0x00800000
        .proc main
main:   ori   $s0, $zero, 10
        move  $s1, $zero
loop:   jal   work
        addu  $s1, $s1, $v0
        addiu $s0, $s0, -1
        bgtz  $s0, loop
        andi  $a0, $s1, 0x7F
        ori   $v0, $zero, 10
        syscall
        .endp
        .align 32
        .proc work
work:   ori   $t0, $zero, 4
        nop
        nop
        nop
        nop
        nop
        nop
        nop
        addu  $v0, $zero, $t0   # first word of the next line
        jr    $ra
        .endp
`

func TestShadowRFIsolation(t *testing.T) {
	// Without the shadow register file, the copy handler (which does not
	// save registers) clobbers $t0..$t3 and corrupts the program: the
	// exit code diverges from the native run. With it, state is isolated.
	nat, err := asm.Assemble(rfProgram)
	if err != nil {
		t.Fatal(err)
	}
	_, want := runImage(t, nat)

	withRF := buildCopyCompressed(t, rfProgram, true)
	_, got := runImage(t, withRF)
	if got != want {
		t.Fatalf("shadow-RF run diverged: %d vs %d", got, want)
	}

	withoutRF := buildCopyCompressed(t, rfProgram, false)
	c, _ := New(DefaultConfig())
	c.Cfg.MaxInstr = 10_000_000
	if err := c.Load(withoutRF); err != nil {
		t.Fatal(err)
	}
	code, err := c.Run()
	// The clobbering handler may cause divergence or a crash; either
	// demonstrates that register isolation matters.
	if err == nil && code == want && c.Stats.Exceptions > 0 {
		t.Fatalf("expected divergence without shadow RF (exceptions=%d)", c.Stats.Exceptions)
	}
}

func TestHandlerThatDoesNotFillFails(t *testing.T) {
	im := buildCopyCompressed(t, excProgram, true)
	// Replace the handler with one that immediately returns.
	broken, err := asm.Assemble(`
        .section .decompressor, 0x7F000000
        .proc __broken
__broken: iret
        .endp
`)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range im.Segments {
		if s.Name == program.SegDecompressor {
			im.Segments[i] = broken.Segment(program.SegDecompressor)
		}
	}
	c, _ := New(DefaultConfig())
	if err := c.Load(im); err != nil {
		t.Fatal(err)
	}
	_, err = c.Run()
	if err == nil || !strings.Contains(err.Error(), "repeated exception") {
		t.Fatalf("err = %v", err)
	}
}

func TestNestedExceptionDetected(t *testing.T) {
	im := buildCopyCompressed(t, excProgram, true)
	// A handler that jumps into the compressed region re-raises from
	// inside the handler: must be detected, not loop forever.
	evil, err := asm.Assemble(`
        .section .decompressor, 0x7F000000
        .proc __evil
__evil: mfc0  $k1, $c0_dbase
        jr    $k1
        .endp
`)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range im.Segments {
		if s.Name == program.SegDecompressor {
			im.Segments[i] = evil.Segment(program.SegDecompressor)
		}
	}
	c, _ := New(DefaultConfig())
	if err := c.Load(im); err != nil {
		t.Fatal(err)
	}
	_, err = c.Run()
	if err == nil || !strings.Contains(err.Error(), "nested") {
		t.Fatalf("err = %v", err)
	}
}

func TestHardwareDecompressMode(t *testing.T) {
	// The same compressed image runs without any handler when the
	// machine models a hardware decompression unit.
	nat, err := asm.Assemble(excProgram)
	if err != nil {
		t.Fatal(err)
	}
	_, want := runImage(t, nat)

	im := buildCopyCompressed(t, excProgram, true)
	// Drop the handler entirely: hardware mode must not need it.
	var segs []*program.Segment
	for _, s := range im.Segments {
		if s.Name != program.SegDecompressor {
			segs = append(segs, s)
		}
	}
	im.Segments = segs

	cfg := DefaultConfig()
	cfg.HardwareDecompress = true
	cfg.HWDecompressCycles = 10
	cfg.MaxInstr = 10_000_000
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Load(im); err != nil {
		t.Fatal(err)
	}
	code, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if code != want {
		t.Fatalf("hardware mode diverged: %d vs %d", code, want)
	}
	if c.Stats.Exceptions != 0 || c.Stats.HandlerInstrs != 0 {
		t.Fatalf("hardware mode must not take exceptions: %+v", c.Stats)
	}
	if c.Stats.IMissCompressed == 0 {
		t.Fatal("no compressed misses recorded")
	}
	// Without hardware mode, the handler-less image must fail to load.
	c2, _ := New(DefaultConfig())
	if err := c2.Load(im); err == nil {
		t.Fatal("software mode without a handler must be rejected")
	}
}
