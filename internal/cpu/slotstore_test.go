package cpu

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/program"
)

// The slot-store coherence battery. Each case changes what the I-cache
// holds for code the program has already fetched, then fetches it
// again. Every case runs three ways: the reference decode-every-cycle
// path (DisablePredecode), the predecoded path under the PredecodeCheck
// oracle (which bypasses the same-line fast path and checks every
// record against the cached word), and the plain predecoded path (fast
// path on). All three must reach the expected exit code with identical
// statistics. The cases that change the I-cache only through the
// program (no poke) also run under the functional policy, which must
// reach the same exit code.

// oriV0 is `ori $v0, $zero, 7`, the replacement instruction the cases
// write over `ori $v0, $zero, 1`.
const oriV0 = 0x34020007

// patchF is the common program shape: f returns the immediate of the
// ori at fins; main calls it, changes that word by `store` (assembly
// using $t0 = &fins, $t1 = oriV0), calls it again and, at marker, a
// third time. The exit code packs the three results as hex digits.
func patchF(store string) string {
	return `
        .text
        .proc main
main:   jal   f
        move  $s0, $v0
        la    $t0, fins
        lui   $t1, 0x3402
        ori   $t1, $t1, 7
        ` + store + `
        jal   f
        sll   $s0, $s0, 4
        addu  $s0, $s0, $v0
marker: jal   f
        sll   $s0, $s0, 4
        addu  $a0, $s0, $v0
        ori   $v0, $zero, 10
        syscall
        .endp
        .align 32
        .proc f
f:
fins:   ori   $v0, $zero, 1
        jr    $ra
        .endp
`
}

type slotCase struct {
	name string
	src  string
	icfg cache.Config // zero: the default I-cache
	// poke, when set, runs once, when the PC first reaches the symbol
	// marker: it changes the I-cache behind the CPU's back.
	poke func(c *CPU, sym map[string]uint32)
	want int32
}

func slotCases() []slotCase {
	// evict drops lines the way a run does, by filling lines of an
	// address range the program never fetches: every way of the set
	// holding fins's line, or of every set.
	evict := func(every bool) func(*CPU, map[string]uint32) {
		return func(c *CPU, sym map[string]uint32) {
			cfg := c.IC.Config()
			lb, span := uint32(cfg.LineBytes), uint32(cfg.Sets()*cfg.LineBytes)
			lines := []uint32{sym["fins"] % span &^ (lb - 1)}
			if every {
				lines = lines[:0]
				for off := uint32(0); off < span; off += lb {
					lines = append(lines, off)
				}
			}
			for w := uint32(0); w < uint32(cfg.Ways); w++ {
				for _, off := range lines {
					c.IC.Fill(0x7000_0000+w*span+off, make([]byte, lb))
				}
			}
		}
	}
	refill, flush := evict(false), evict(true)
	// patchLine re-fills the line holding sym[at] with its current
	// bytes, except that word, which becomes w.
	patchLine := func(at string, w uint32) func(*CPU, map[string]uint32) {
		return func(c *CPU, sym map[string]uint32) {
			a := sym[at]
			base := c.IC.LineBase(a)
			line := bytes.Clone(c.IC.SlotData(c.IC.Slot(base)))
			binary.LittleEndian.PutUint32(line[a-base:], w)
			c.IC.Fill(base, line)
		}
	}
	return []slotCase{
		{
			// f and g alias in a 1KB direct-mapped cache (as does main),
			// so each call refills one slot with a different line.
			name: "direct-mapped-eviction",
			icfg: cache.Config{SizeBytes: 1024, LineBytes: 32, Ways: 1},
			src: `
        .text
        .proc main
main:   move  $s1, $zero
        ori   $s0, $zero, 20
loop:   jal   f
        addu  $s1, $s1, $v0
        jal   g
        addu  $s1, $s1, $v0
        addiu $s0, $s0, -1
        bgtz  $s0, loop
        move  $a0, $s1
        ori   $v0, $zero, 10
        syscall
        .endp
        .align 1024
        .proc f
f:      ori   $v0, $zero, 3
        jr    $ra
        .endp
        .align 1024
        .proc g
g:      ori   $v0, $zero, 5
        jr    $ra
        .endp
`,
			want: 20 * (3 + 5),
		},
		{
			// swic rewrites a word of f's resident line; the return to f
			// must run the new word (memory still holds the old one).
			name: "swic-resident-line",
			src:  patchF("swic  $t1, 0($t0)"),
			want: 0x177,
		},
		{
			// swic rewrites the next word of the line being executed: the
			// same-line fast path must notice.
			name: "swic-current-line",
			src: `
        .text
        .proc main
main:   la    $t0, patch
        lui   $t1, 0x3404
        ori   $t1, $t1, 9
        swic  $t1, 0($t0)
patch:  ori   $a0, $zero, 1
        ori   $v0, $zero, 10
        syscall
        .endp
`,
			want: 9,
		},
		{
			// swic claims a line that evicts f's from its direct-mapped
			// slot, then runs it: the slot's records must be f's no more.
			name: "swic-claim-evicting",
			icfg: cache.Config{SizeBytes: 1024, LineBytes: 32, Ways: 1},
			src: `
        .text
        .proc main
main:   jal   f
        move  $s0, $v0
        la    $t0, f
        addiu $t0, $t0, 1024
        lui   $t1, 0x03E0
        ori   $t1, $t1, 8
        swic  $t1, 0($t0)
        ori   $v0, $zero, 5
        jalr  $t0
        sll   $s0, $s0, 4
        addu  $a0, $s0, $v0
        ori   $v0, $zero, 10
        syscall
        .endp
        .align 512
        .proc f
f:      ori   $v0, $zero, 1
        jr    $ra
        .endp
`,
			want: 0x15, // the claimed line is a lone jr $ra
		},
		// A store changes memory only; the I-cache keeps serving the old
		// word until the line is dropped and refilled, which must then
		// bring in the stored bytes (native refills copy records from
		// the decode store, which the store must have invalidated).
		{name: "sw-invalidate-refill", src: patchF("sw    $t1, 0($t0)"), poke: refill, want: 0x117},
		{name: "sh-flush-refill", src: patchF("sh    $t1, 0($t0)"), poke: flush, want: 0x117},
		{name: "sb-flush-refill", src: patchF("sb    $t1, 0($t0)"), poke: flush, want: 0x117},
		{
			// A fill of different bytes at the same base, done behind
			// the CPU's back, into a line the CPU has records for.
			name: "fill-behind-back",
			src:  patchF("nop"),
			poke: patchLine("fins", oriV0),
			want: 0x117,
		},
		{
			// The same, into the line being executed.
			name: "fill-behind-back-current-line",
			src: `
        .text
        .proc main
main:   ori   $t0, $zero, 1
marker: ori   $a0, $zero, 1
        ori   $v0, $zero, 10
        syscall
        .endp
`,
			poke: patchLine("marker", 0x34040009), // ori $a0, $zero, 9
			want: 9,
		},
	}
}

// runSlotCase runs one case in one fetch mode, on the functional or
// the detailed policy, and returns the machine.
func runSlotCase(t *testing.T, tc slotCase, mode func(*Config), functional bool) *CPU {
	t.Helper()
	im, err := asm.Assemble(tc.src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	cfg := DefaultConfig()
	if tc.icfg != (cache.Config{}) {
		cfg.ICache = tc.icfg
	}
	cfg.MaxInstr = 1_000_000
	mode(&cfg)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Load(im); err != nil {
		t.Fatal(err)
	}
	if tc.poke != nil {
		marker, ok := im.Symbols["marker"]
		if !ok {
			t.Fatal("case has a poke but no marker label")
		}
		for c.PC() != marker {
			if err := c.StepUser(1); err != nil {
				t.Fatalf("step: %v", err)
			}
			if halted, _ := c.Halted(); halted {
				t.Fatal("halted before reaching marker")
			}
		}
		tc.poke(c, im.Symbols)
	}
	code, err := runPolicy(c, functional)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != tc.want {
		t.Errorf("exit code %#x, want %#x", code, tc.want)
	}
	return c
}

func TestSlotStoreCoherence(t *testing.T) {
	modes := []struct {
		name string
		set  func(*Config)
	}{
		{"reference", func(c *Config) { c.DisablePredecode = true }},
		{"checked", func(c *Config) { c.PredecodeCheck = true }},
		{"fast", func(*Config) {}},
	}
	for _, tc := range slotCases() {
		t.Run(tc.name, func(t *testing.T) {
			var ref *CPU
			for _, m := range modes {
				var c *CPU
				t.Run(m.name, func(t *testing.T) { c = runSlotCase(t, tc, m.set, false) })
				if c == nil {
					continue
				}
				if ref == nil {
					ref = c
					continue
				}
				if c.Stats != ref.Stats || c.IC.Stats != ref.IC.Stats {
					t.Errorf("%s: stats diverge from the reference:\n%+v %+v\n%+v %+v",
						m.name, c.Stats, c.IC.Stats, ref.Stats, ref.IC.Stats)
				}
			}
			if tc.poke == nil {
				t.Run("functional", func(t *testing.T) {
					runSlotCase(t, tc, func(*Config) {}, true)
				})
			}
			if tc.name == "direct-mapped-eviction" && ref != nil && ref.IC.Stats.Evictions < 40 {
				t.Errorf("only %d evictions: the case no longer refills slots", ref.IC.Stats.Evictions)
			}
		})
	}
}

// TestPartWordTextTail: a text segment whose length is not a whole
// number of words (a malformed image) runs, and takes a store into its
// last, partial word, on both engines without indexing past the decode
// store.
func TestPartWordTextTail(t *testing.T) {
	im, err := asm.Assemble(`
        .text
        .proc main
main:   la    $t0, tail
        sb    $zero, 1($t0)
        ori   $a0, $zero, 3
        ori   $v0, $zero, 10
        syscall
tail:
        .endp
`)
	if err != nil {
		t.Fatal(err)
	}
	text := im.Segment(program.SegText)
	if text.End() != im.Symbols["tail"] {
		t.Fatalf("tail label at %#x, text ends at %#x", im.Symbols["tail"], text.End())
	}
	text.Data = append(text.Data, 0xAA, 0xBB)
	for _, functional := range []bool{false, true} {
		c, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Load(im); err != nil {
			t.Fatal(err)
		}
		if code, err := runPolicy(c, functional); err != nil || code != 3 {
			t.Errorf("functional=%v: exit %d, %v; want 3", functional, code, err)
		}
	}
}

// TestSubWordICacheLineRefused: an I-cache line shorter than an
// instruction word is a configuration error, not a fetch-time panic.
func TestSubWordICacheLineRefused(t *testing.T) {
	for _, lb := range []int{1, 2} {
		cfg := DefaultConfig()
		cfg.ICache.LineBytes = lb
		if _, err := New(cfg); err == nil {
			t.Errorf("New accepted a %dB I-cache line", lb)
		}
	}
}

// TestNativeRefillsDoNotAllocate is the allocation guard for the fetch
// path: a detailed run of a native program that misses the I-cache
// tens of thousands of times allocates (after Load) less than one object per
// 1000 instructions — the same ratio as the benchmark's
// runtime.allocs_per_kinstr.
func TestNativeRefillsDoNotAllocate(t *testing.T) {
	// Eight procedures 1KB apart alias in a 1KB direct-mapped cache:
	// every call in the loop misses.
	src := `
        .text
        .proc main
main:   ori   $s0, $zero, 10000
loop:   jal   p0
        jal   p1
        jal   p2
        jal   p3
        jal   p4
        jal   p5
        jal   p6
        jal   p7
        addiu $s0, $s0, -1
        bgtz  $s0, loop
        move  $a0, $zero
        ori   $v0, $zero, 10
        syscall
        .endp
`
	for i := 0; i < 8; i++ {
		src += fmt.Sprintf(`
        .align 1024
        .proc p%[1]d
p%[1]d:     addiu $v0, $v0, 1
        sw    $v0, 0($sp)
        jr    $ra
        .endp
`, i)
	}
	im, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.ICache = cache.Config{SizeBytes: 1024, LineBytes: 32, Ways: 1}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Load(im); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if c.Stats.IMissNative < 100_000 {
		t.Fatalf("only %d I-cache misses: the guard needs a miss-heavy run", c.Stats.IMissNative)
	}
	kinstr := float64(c.Stats.Instrs) / 1000
	if per := float64(after.Mallocs-before.Mallocs) / kinstr; per >= 1 {
		t.Errorf("%.2f allocations per 1000 instructions over %d misses, want < 1",
			per, c.Stats.IMissNative)
	}
}
