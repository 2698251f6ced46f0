package core

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/asm"
	"repro/internal/compress/dict"
	"repro/internal/cpu"
	"repro/internal/program"
	"repro/internal/synth"
)

// testProgram mixes recursion, loops, data access and output so that a
// decoding bug in any handler diverges the architectural result.
const testProgram = `
        .data
tab:    .word 3, 1, 4, 1, 5, 9, 2, 6
msg:    .asciiz "ok"
        .text
        .proc main
main:   ori   $s0, $zero, 8
        move  $s1, $zero
        la    $s2, tab
mloop:  lw    $t0, 0($s2)
        addu  $s1, $s1, $t0
        addiu $s2, $s2, 4
        addiu $s0, $s0, -1
        bgtz  $s0, mloop
        ori   $a0, $zero, 9
        jal   fib
        addu  $s1, $s1, $v0
        jal   shuffle
        addu  $s1, $s1, $v0
        la    $a0, msg
        ori   $v0, $zero, 4
        syscall
        andi  $a0, $s1, 0xFF
        ori   $v0, $zero, 10
        syscall
        .endp
        .proc fib
fib:    slti  $t0, $a0, 2
        beq   $t0, $zero, frec
        move  $v0, $a0
        jr    $ra
frec:   addiu $sp, $sp, -12
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
        .proc shuffle
shuffle:
        ori   $t0, $zero, 50
        li    $t1, 0x12345
        move  $v0, $zero
sloop:  xor   $t1, $t1, $t0
        sll   $t2, $t1, 3
        srl   $t3, $t1, 7
        or    $t1, $t2, $t3
        addu  $v0, $v0, $t1
        addiu $t0, $t0, -1
        bgtz  $t0, sloop
        andi  $v0, $v0, 0xFFF
        jr    $ra
        .endp
`

func assembleNative(t *testing.T) *program.Image {
	t.Helper()
	im, err := asm.Assemble(testProgram)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

type runResult struct {
	code  int32
	out   string
	stats cpu.Stats
	cpu   *cpu.CPU
}

func runOn(t *testing.T, im *program.Image, cacheKB int) runResult {
	t.Helper()
	cfg := cpu.DefaultConfig()
	cfg.ICache.SizeBytes = cacheKB * 1024
	cfg.MaxInstr = 50_000_000
	c, err := cpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	c.Out = &out
	if err := c.Load(im); err != nil {
		t.Fatal(err)
	}
	code, err := c.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return runResult{code, out.String(), c.Stats, c}
}

func compressWith(t *testing.T, native *program.Image, opts Options) *Result {
	t.Helper()
	res, err := Compress(native, opts)
	if err != nil {
		t.Fatalf("Compress(%+v): %v", opts, err)
	}
	return res
}

func TestDictCompressedRunMatchesNative(t *testing.T) {
	native := assembleNative(t)
	ref := runOn(t, native, 16)
	for _, rf := range []bool{false, true} {
		res := compressWith(t, native, Options{Scheme: program.SchemeDict, ShadowRF: rf})
		got := runOn(t, res.Image, 16)
		if got.code != ref.code || got.out != ref.out {
			t.Fatalf("rf=%v: diverged: code %d vs %d, out %q vs %q",
				rf, got.code, ref.code, got.out, ref.out)
		}
		if got.stats.Instrs != ref.stats.Instrs {
			t.Fatalf("rf=%v: user instr count changed: %d vs %d", rf, got.stats.Instrs, ref.stats.Instrs)
		}
		if got.stats.Exceptions == 0 {
			t.Fatalf("rf=%v: no decompression happened", rf)
		}
		if got.stats.Cycles <= ref.stats.Cycles {
			t.Fatalf("rf=%v: compressed not slower", rf)
		}
	}
}

func TestCodePackCompressedRunMatchesNative(t *testing.T) {
	native := assembleNative(t)
	ref := runOn(t, native, 16)
	for _, rf := range []bool{false, true} {
		res := compressWith(t, native, Options{Scheme: program.SchemeCodePack, ShadowRF: rf})
		got := runOn(t, res.Image, 16)
		if got.code != ref.code || got.out != ref.out {
			t.Fatalf("rf=%v: diverged: code %d vs %d, out %q vs %q",
				rf, got.code, ref.code, got.out, ref.out)
		}
		if got.stats.Exceptions == 0 {
			t.Fatalf("rf=%v: no decompression happened", rf)
		}
	}
}

func TestProcDictSchemeMatchesNative(t *testing.T) {
	native := assembleNative(t)
	ref := runOn(t, native, 16)
	for _, rf := range []bool{false, true} {
		res := compressWith(t, native, Options{Scheme: program.SchemeProcDict, ShadowRF: rf})
		got := runOn(t, res.Image, 16)
		if got.code != ref.code || got.out != ref.out {
			t.Fatalf("rf=%v: procdict diverged: %d/%q vs %d/%q", rf, got.code, got.out, ref.code, ref.out)
		}
		if got.stats.Exceptions == 0 {
			t.Fatalf("rf=%v: no decompression happened", rf)
		}
		// Procedure granularity must take fewer exceptions than there are
		// compressed lines touched: whole procedures prefetch.
		d := compressWith(t, native, Options{Scheme: program.SchemeDict, ShadowRF: rf})
		dGot := runOn(t, d.Image, 16)
		if got.stats.Exceptions >= dGot.stats.Exceptions {
			t.Fatalf("rf=%v: procdict exceptions %d not below dict %d",
				rf, got.stats.Exceptions, dGot.stats.Exceptions)
		}
	}
}

func TestCopySchemeMatchesNative(t *testing.T) {
	native := assembleNative(t)
	ref := runOn(t, native, 16)
	res := compressWith(t, native, Options{Scheme: SchemeCopy, ShadowRF: true})
	got := runOn(t, res.Image, 16)
	if got.code != ref.code || got.out != ref.out {
		t.Fatal("copy scheme diverged")
	}
}

func TestDict8Ablation(t *testing.T) {
	native := assembleNative(t)
	ref := runOn(t, native, 16)
	res := compressWith(t, native, Options{
		Scheme: program.SchemeDict, ShadowRF: true, IndexBits: dict.Index8})
	got := runOn(t, res.Image, 16)
	if got.code != ref.code || got.out != ref.out {
		t.Fatal("8-bit dictionary diverged")
	}
	// 8-bit indices halve the index stream relative to 16-bit.
	res16 := compressWith(t, native, Options{Scheme: program.SchemeDict, ShadowRF: true})
	if res.StoredSize >= res16.StoredSize {
		t.Fatalf("8-bit (%d) should store less than 16-bit (%d) on this program",
			res.StoredSize, res16.StoredSize)
	}
}

func TestCacheLinesMatchGolden(t *testing.T) {
	native := assembleNative(t)
	for _, scheme := range []program.Scheme{program.SchemeDict, program.SchemeCodePack} {
		res := compressWith(t, native, Options{Scheme: scheme, ShadowRF: true})
		r := runOn(t, res.Image, 16)
		text := res.Image.Segment(program.SegText)
		checked := 0
		for addr := text.Base; addr < text.End(); addr += 32 {
			s := r.cpu.IC.Slot(addr)
			if s < 0 {
				continue
			}
			line := r.cpu.IC.SlotData(s)
			checked++
			want := text.Data[addr-text.Base:]
			for i := 0; i < 32 && int(addr-text.Base)+i < len(text.Data); i++ {
				if line[i] != want[i] {
					t.Fatalf("%s: line %#x byte %d: got %#x want %#x",
						scheme, addr, i, line[i], want[i])
				}
			}
		}
		if checked == 0 {
			t.Fatalf("%s: no lines to check", scheme)
		}
	}
}

func TestSelectiveCompression(t *testing.T) {
	native := assembleNative(t)
	ref := runOn(t, native, 16)
	res := compressWith(t, native, Options{
		Scheme:      program.SchemeDict,
		ShadowRF:    true,
		NativeProcs: map[string]bool{"fib": true},
	})
	got := runOn(t, res.Image, 16)
	if got.code != ref.code || got.out != ref.out {
		t.Fatalf("selective run diverged: %d/%q vs %d/%q", got.code, got.out, ref.code, ref.out)
	}
	if res.NativeBytes == 0 {
		t.Fatal("no native region produced")
	}
	// fib must live in the native region.
	p := res.Image.ProcByName("fib")
	if p == nil || p.Addr >= program.CompBase {
		t.Fatalf("fib not in native region: %+v", p)
	}
	// Size accounting: stored = native bytes + dict + indices (+ padding
	// instructions), and the image agrees with the Result.
	if res.StoredSize != res.Image.StoredCodeSize() {
		t.Fatalf("accounting mismatch: %d vs %d", res.StoredSize, res.Image.StoredCodeSize())
	}
	if fibSize := int(p.Size); res.NativeBytes != fibSize {
		t.Fatalf("native bytes = %d, want fib's size %d", res.NativeBytes, fibSize)
	}
}

func TestSelectiveAllNativeRejected(t *testing.T) {
	native := assembleNative(t)
	_, err := Compress(native, Options{
		Scheme:      program.SchemeDict,
		NativeProcs: map[string]bool{"main": true, "fib": true, "shuffle": true},
	})
	if err == nil {
		t.Fatal("expected error when everything is native")
	}
}

func TestSlowdownOrdering(t *testing.T) {
	// On the same program: native <= D+RF <= D, native <= CP+RF <= CP,
	// and dictionary is faster than CodePack (paper Table 3).
	native := assembleNative(t)
	ref := runOn(t, native, 4) // small cache: more misses, more decompression
	cyc := func(opts Options) uint64 {
		res := compressWith(t, native, opts)
		return runOn(t, res.Image, 4).stats.Cycles
	}
	d := cyc(Options{Scheme: program.SchemeDict})
	drf := cyc(Options{Scheme: program.SchemeDict, ShadowRF: true})
	cp := cyc(Options{Scheme: program.SchemeCodePack})
	cprf := cyc(Options{Scheme: program.SchemeCodePack, ShadowRF: true})
	if !(ref.stats.Cycles < drf && drf < d) {
		t.Fatalf("dict ordering violated: native=%d D+RF=%d D=%d", ref.stats.Cycles, drf, d)
	}
	if !(ref.stats.Cycles < cprf && cprf <= cp) {
		t.Fatalf("codepack ordering violated: native=%d CP+RF=%d CP=%d", ref.stats.Cycles, cprf, cp)
	}
	if !(d < cp) {
		t.Fatalf("dictionary (%d) should be faster than CodePack (%d)", d, cp)
	}
}

func TestSizeAccounting(t *testing.T) {
	// ratio = 0.5 + unique/total for 16-bit dictionary compression (§3.1):
	// a tiny program with mostly-unique instructions legitimately expands.
	native := assembleNative(t)
	d := compressWith(t, native, Options{Scheme: program.SchemeDict})
	golden := d.Image.Segment(program.SegText).Data
	uniq := map[string]bool{}
	for i := 0; i+4 <= len(golden); i += 4 {
		uniq[string(golden[i:i+4])] = true
	}
	want := 0.5 + float64(len(uniq))/float64(len(golden)/4)
	// The ratio uses the original (pre-padding) size as denominator, so
	// allow the padding slack.
	got := d.Ratio()
	if got < want*0.95 || got > want*1.15 {
		t.Fatalf("ratio = %.3f, want about %.3f", got, want)
	}
	if d.StoredSize != d.Image.StoredCodeSize() {
		t.Fatalf("size accounting mismatch: %d vs %d", d.StoredSize, d.Image.StoredCodeSize())
	}
}

func TestPlacementOrderOption(t *testing.T) {
	native := assembleNative(t)
	ref := runOn(t, native, 16)
	// Reverse the procedure order; results must be identical, layout not.
	res := compressWith(t, native, Options{
		Scheme:   program.SchemeDict,
		ShadowRF: true,
		Order:    []string{"shuffle", "fib", "main"},
	})
	got := runOn(t, res.Image, 16)
	if got.code != ref.code || got.out != ref.out {
		t.Fatalf("reordered image diverged: %d/%q", got.code, got.out)
	}
	sh := res.Image.ProcByName("shuffle")
	mn := res.Image.ProcByName("main")
	fb := res.Image.ProcByName("fib")
	if !(sh.Addr < fb.Addr && fb.Addr < mn.Addr) {
		t.Fatalf("order not applied: shuffle=%#x fib=%#x main=%#x", sh.Addr, fb.Addr, mn.Addr)
	}
	// A partial order lists some procedures; the rest keep program order.
	res2 := compressWith(t, native, Options{
		Scheme:   program.SchemeDict,
		ShadowRF: true,
		Order:    []string{"fib"},
	})
	got2 := runOn(t, res2.Image, 16)
	if got2.out != ref.out {
		t.Fatal("partial order diverged")
	}
	if p := res2.Image.ProcByName("fib"); p.Addr != program.CompBase {
		t.Fatalf("fib should lead the region: %#x", p.Addr)
	}
}

func TestCompressErrors(t *testing.T) {
	native := assembleNative(t)
	if _, err := Compress(native, Options{Scheme: "bogus"}); err == nil {
		t.Fatal("unknown scheme must error")
	}
	res := compressWith(t, native, Options{Scheme: program.SchemeDict})
	if _, err := Compress(res.Image, Options{Scheme: program.SchemeDict}); err == nil {
		t.Fatal("double compression must error")
	}
}

func TestDictionaryOverflowSpillsToNative(t *testing.T) {
	// With 8-bit indices (256-entry dictionary) a benchmark-sized program
	// overflows: the tail procedures must be left native automatically
	// (paper §3.1), and the program must still run correctly.
	p, ok := synth.ByName("pegwit")
	if !ok {
		t.Fatal("missing benchmark")
	}
	im, err := synth.Build(p.Scale(0.05))
	if err != nil {
		t.Fatal(err)
	}
	ref := runOn(t, im, 16)
	res, err := Compress(im, Options{
		Scheme: program.SchemeDict, ShadowRF: true, IndexBits: dict.Index8})
	if err != nil {
		t.Fatalf("spill should make 8-bit compression possible: %v", err)
	}
	if res.NativeBytes == 0 {
		t.Fatal("expected a native spill region")
	}
	// The compressed region's unique words must fit 256 entries.
	golden := res.Image.Segment(program.SegText).Data
	uniq := map[string]bool{}
	for i := 0; i+4 <= len(golden); i += 4 {
		uniq[string(golden[i:i+4])] = true
	}
	if len(uniq) > 256 {
		t.Fatalf("compressed region has %d unique words, dictionary holds 256", len(uniq))
	}
	got := runOn(t, res.Image, 16)
	if got.code != ref.code || got.out != ref.out {
		t.Fatalf("spilled run diverged: %d/%q vs %d/%q", got.code, got.out, ref.code, ref.out)
	}
	if got.stats.Exceptions == 0 {
		t.Fatal("nothing was decompressed")
	}
}

// TestSpillKeepsExplicitOrder checks that procedures spilled to the
// native region by a dictionary overflow still follow Options.Order,
// in a program that runs as the native one does.
func TestSpillKeepsExplicitOrder(t *testing.T) {
	p, _ := synth.ByName("pegwit")
	im, err := synth.Build(p.Scale(0.05))
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	for i := len(im.Procs) - 1; i >= 0; i-- {
		order = append(order, im.Procs[i].Name)
	}
	res, err := Compress(im, Options{
		Scheme: program.SchemeDict, ShadowRF: true, IndexBits: dict.Index8, Order: order})
	if err != nil {
		t.Fatal(err)
	}
	var native []string // the native region, by address
	for _, q := range res.Image.Procs {
		if q.Addr < program.CompBase {
			native = append(native, q.Name)
		}
	}
	if len(native) < 2 {
		t.Fatalf("expected a spilled native region, got %v", native)
	}
	if want := order[len(order)-len(native):]; !slices.Equal(native, want) {
		t.Fatalf("native region %v..., want %v...", native[:3], want[:3])
	}
	ref, got := runOn(t, im, 16), runOn(t, res.Image, 16)
	if got.code != ref.code || got.out != ref.out {
		t.Fatalf("spilled run diverged: %d/%q vs %d/%q", got.code, got.out, ref.code, ref.out)
	}
}

func TestDictionaryNoSpillWhenItFits(t *testing.T) {
	native := assembleNative(t)
	res := compressWith(t, native, Options{Scheme: program.SchemeDict})
	if res.NativeBytes != 0 {
		t.Fatal("small program must not spill")
	}
}

func TestCompressRejectsBrokenInputs(t *testing.T) {
	// No .text segment.
	im := &program.Image{
		Entry:    program.DataBase,
		Segments: []*program.Segment{{Name: program.SegData, Base: program.DataBase, Data: make([]byte, 8)}},
		Symbols:  map[string]uint32{},
	}
	if _, err := Compress(im, Options{Scheme: program.SchemeDict}); err == nil {
		t.Fatal("missing .text must error")
	}
	// No procedure table.
	im2 := &program.Image{
		Entry:    program.NativeBase,
		Segments: []*program.Segment{{Name: program.SegText, Base: program.NativeBase, Data: make([]byte, 8)}},
		Symbols:  map[string]uint32{},
	}
	if _, err := Compress(im2, Options{Scheme: program.SchemeDict}); err == nil {
		t.Fatal("missing procedures must error")
	}
	// A relocation site outside every procedure cannot be re-laid out.
	native := assembleNative(t)
	bad := *native
	bad.Relocs = append(append([]program.Reloc(nil), native.Relocs...), program.Reloc{
		Kind: program.RelWord32, Seg: program.SegText,
		Off: native.Segment(program.SegText).End() - native.Segment(program.SegText).Base - 4,
		Sym: "main",
	})
	// Shrink the last procedure so the new site falls outside it.
	bad.Procs = append([]program.Procedure(nil), native.Procs...)
	last := &bad.Procs[len(bad.Procs)-1]
	if last.Size >= 8 {
		last.Size -= 4
		if _, err := Compress(&bad, Options{Scheme: program.SchemeDict}); err == nil {
			t.Fatal("reloc site outside procedures must error")
		}
	}
}
