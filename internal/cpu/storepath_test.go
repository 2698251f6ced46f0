package cpu

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/program"
)

// The store path's coherence battery. run writes a store's page inline
// only when the memory's page cache holds the page and plainStore
// reports that the store needs none of fstoreData's work. Each case
// stores where that work is needed, to a page the cache already holds,
// so the inline path would take the store if plainStore let it; the
// case checks that the work was done. Every case runs under the
// detailed and the functional policy.

// storeWidths are the store widths with the load that reads the same
// bytes back.
var storeWidths = []struct{ store, load string }{{"sb", "lbu"}, {"sh", "lhu"}, {"sw", "lw"}}

// storePolicies are the policies each case runs under.
var storePolicies = []struct {
	name       string
	functional bool
}{{"detailed", false}, {"functional", true}}

// newStoreCPU loads im on a machine with icfg as its I-cache unless
// icfg is zero.
func newStoreCPU(t *testing.T, im *program.Image, icfg cache.Config) *CPU {
	t.Helper()
	cfg := DefaultConfig()
	if icfg != (cache.Config{}) {
		cfg.ICache = icfg
	}
	cfg.MaxInstr = 1_000_000
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Load(im); err != nil {
		t.Fatal(err)
	}
	return c
}

func assembleT(t *testing.T, src string) *program.Image {
	t.Helper()
	im, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// patchTwice calls the routine at fn, patches the ori at ins by adding
// 6 to its immediate with one store of the width, calls `between`,
// then fn again. The exit code packs the two results ($reg) as hex
// digits: 0x17 when the second call runs the patched word.
func patchTwice(fn, ins, reg, between string, w struct{ store, load string }) string {
	return `
        .text
        .proc main
main:   la    $t0, ` + fn + `
        jalr  $t0
        move  $s0, ` + reg + `
        la    $t0, ` + ins + `
        ` + w.load + `  $t1, 0($t0)
        addiu $t1, $t1, 6
        ` + w.store + `  $t1, 0($t0)
        ` + between + `
        la    $t0, ` + fn + `
        jalr  $t0
        sll   $s0, $s0, 4
        addu  $a0, $s0, ` + reg + `
        ori   $v0, $zero, 10
        syscall
        .endp
`
}

// TestStoreIntoHandlerRAM: a store into handler RAM re-decodes the
// word's record (hdec), so the next call there runs the new word.
func TestStoreIntoHandlerRAM(t *testing.T) {
	for _, w := range storeWidths {
		src := patchTwice("hfun", "hins", "$v1", "nop", w) + `
        .section .decompressor, 0x7F000000
        .proc hfun
hfun:   nop
hins:   ori   $v1, $zero, 1
        jr    $ra
        .endp
`
		im := assembleT(t, src)
		for _, pol := range storePolicies {
			t.Run(w.store+"/"+pol.name, func(t *testing.T) {
				c := newStoreCPU(t, im, cache.Config{})
				code, err := runPolicy(c, pol.functional)
				if err != nil || code != 0x17 {
					t.Fatalf("exit %#x, err %v; want 0x17", code, err)
				}
				a := im.Symbols["hins"]
				if got, want := c.hdec[(a-c.handlerPC)>>2], decodeInstr(a, c.Mem.ReadWord(a)); got != want {
					t.Errorf("handler record %+v, want %+v", got, want)
				}
				if c.Mem.Cached(a) == nil {
					t.Error("the case no longer stores to a page the page cache holds")
				}
			})
		}
	}
}

// TestStoreIntoNativeCode: a store into the native extent drops the
// word's record in the decode store (fdec). The functional policy
// fetches the new word from there at once; the detailed one keeps
// running the cached line until g, which shares its set in a 1 KB
// direct-mapped I-cache, evicts it, and the refill, which copies its
// records from fdec, brings the new word in.
func TestStoreIntoNativeCode(t *testing.T) {
	icfg := cache.Config{SizeBytes: 1024, LineBytes: 32, Ways: 1}
	for _, w := range storeWidths {
		src := patchTwice("f", "fins", "$v0", "jal g", w) + `
        .align 1024
        .proc f
f:
fins:   ori   $v0, $zero, 1
        jr    $ra
        .endp
        .align 1024
        .proc g
g:      jr    $ra
        .endp
`
		im := assembleT(t, src)
		for _, pol := range storePolicies {
			t.Run(w.store+"/"+pol.name, func(t *testing.T) {
				c := newStoreCPU(t, im, icfg)
				code, err := runPolicy(c, pol.functional)
				if err != nil || code != 0x17 {
					t.Fatalf("exit %#x, err %v; want 0x17", code, err)
				}
				if a := im.Symbols["fins"]; c.Mem.Cached(a) == nil {
					t.Error("the case no longer stores to a page the page cache holds")
				}
			})
		}
	}
}

// spanProgram faults in a few lines of copy-compressed code, whose
// activations the detailed policy records, then stores into the golden
// copy of its first line, which those activations loaded from. The
// store and the exit share one line, already resident when the store
// runs, so no activation follows it.
func spanProgram(store string) string {
	return `
        .text 0x00800000
        .proc main
main:   ori   $s0, $zero, 4
loop:   jal   work
        addiu $s0, $s0, -1
        bgtz  $s0, loop
        .align 32
        lui   $t0, 0x1000
        ` + store + `
        ori   $a0, $zero, 3
        ori   $v0, $zero, 10
        syscall
        .endp
        .proc work
work:   ori   $t0, $zero, 4
w1:     addiu $t0, $t0, -1
        bgtz  $t0, w1
        jr    $ra
        .endp
`
}

// TestStoreIntoRecordedSpan: a store into a word some recording loaded
// from drops every recording. The functional policy records nothing,
// so it runs the program after a detailed period that recorded; the
// recordings survive the functional period without the store.
func TestStoreIntoRecordedSpan(t *testing.T) {
	for _, w := range storeWidths {
		for _, pol := range storePolicies {
			t.Run(w.store+"/"+pol.name, func(t *testing.T) {
				for _, store := range []string{"nop", w.store + " $zero, 0($t0)"} {
					im := buildCopyCompressed(t, spanProgram(store), true)
					c := newStoreCPU(t, im, cache.Config{})
					if pol.functional {
						if _, err := c.RunDetailedFor(3); err != nil {
							t.Fatal(err)
						}
						if len(c.rp.byBadva) == 0 {
							t.Fatal("the detailed period recorded nothing")
						}
					}
					code, err := runPolicy(c, pol.functional)
					if err != nil || code != 3 {
						t.Fatalf("%s: exit %d, err %v; want 3", store, code, err)
					}
					if pol.functional && c.FStats.Instrs == 0 {
						t.Fatal("nothing ran under the functional policy")
					}
					switch {
					case store == "nop" && len(c.rp.byBadva) == 0:
						t.Fatal("without the store, no recording is left: the case checks nothing")
					case store != "nop" && (c.rp.byBadva != nil || c.rp.span != 0):
						t.Errorf("%s into the recorded span left %d recordings, span %#x", store, len(c.rp.byBadva), c.rp.span)
					}
					if c.Mem.Cached(program.CompDataBase) == nil {
						t.Error("the case no longer stores to a page the page cache holds")
					}
				}
			})
		}
	}
}

// storingHandler is copyHandler with a data store in front: it loads a
// .data word, so the page is cached before the store in every
// activation after the first, and stores it above the words it loads,
// outside every recording's loaded span.
var storingHandler = strings.Replace(copyHandler, "__copy_handler:\n", `__copy_handler:
        lui   $k0, 0x2000
        lw    $t4, 0($k0)
        STORE $t4, 256($k0)
`, 1)

// TestStoreInRecordedActivation: the forward run refuses an activation
// that stores, so its BADVA is stored as ineligible and the activation
// is interpreted, store included. Every line of excProgram faults once.
// The functional policy records nothing and must end as the plain copy
// handler's run does.
func TestStoreInRecordedActivation(t *testing.T) {
	_, want := runImage(t, buildCopyCompressed(t, excProgram, true))
	for _, w := range storeWidths {
		im := buildWithHandler(t, excProgram, strings.Replace(storingHandler, "STORE", w.store, 1), true)
		for _, pol := range storePolicies {
			t.Run(w.store+"/"+pol.name, func(t *testing.T) {
				c := newStoreCPU(t, im, cache.Config{})
				code, err := runPolicy(c, pol.functional)
				if err != nil || code != want {
					t.Fatalf("exit %d, err %v; want %d", code, err, want)
				}
				if pol.functional {
					if len(c.rp.byBadva) != 0 {
						t.Errorf("the functional policy recorded %d activations", len(c.rp.byBadva))
					}
					return
				}
				if len(c.rp.byBadva) < 2 {
					t.Fatalf("%d activations recorded, want at least 2", len(c.rp.byBadva))
				}
				for badva, rec := range c.rp.byBadva {
					if rec != &ineligible {
						t.Errorf("the activation for %#x stored, yet was recorded as eligible", badva)
					}
				}
				if c.Mem.Cached(program.DataBase) == nil {
					t.Error("the case no longer stores to a page the page cache holds")
				}
			})
		}
	}
}

// TestStoreIntoCompressedRegion: a store into the compressed region
// drops the word's record in the functional policy's decode store
// (fcdec), which is rebuilt from the materialised word. main's first
// two words are never fetched again; the second store finds the page
// the first one backed in the page cache.
func TestStoreIntoCompressedRegion(t *testing.T) {
	for _, w := range storeWidths {
		src := strings.Replace(excProgram, "main:   ori   $s0, $zero, 200\n", `main:   ori   $s0, $zero, 200
        lui   $t0, 0x0080
        `+w.store+`  $zero, 4($t0)
        `+w.store+`  $zero, 0($t0)
`, 1)
		im := buildCopyCompressed(t, src, true)
		for _, pol := range storePolicies {
			t.Run(w.store+"/"+pol.name, func(t *testing.T) {
				c := newStoreCPU(t, im, cache.Config{})
				if _, err := runPolicy(c, pol.functional); err != nil {
					t.Fatal(err)
				}
				if c.Mem.Cached(program.CompBase) == nil {
					t.Error("the case no longer stores to a page the page cache holds")
				}
				if !pol.functional {
					return
				}
				for i := range 2 {
					if c.fcdec[i].op != pUndecoded {
						t.Errorf("the record of %#x survived a store into it", program.CompBase+4*i)
					}
				}
			})
		}
	}
}

// TestStoreBacksPage: a first store to an unbacked page backs it and
// the store lands; a store that would back more than mem.MaxBacked
// fails with mem.ErrBacked and the store error's text.
func TestStoreBacksPage(t *testing.T) {
	for _, w := range storeWidths {
		first := `
        .text
        .proc main
main:   lui   $t0, 0x3000
        ori   $t1, $zero, 0x55
        ` + w.store + `  $t1, 4($t0)
        ` + w.load + `  $a0, 4($t0)
        ori   $v0, $zero, 10
        syscall
        .endp
`
		runaway := `
        .text
        .proc main
main:   lui   $t0, 0x4000
        lui   $t1, 1
more:   ` + w.store + `  $t2, 0($t0)
        addu  $t0, $t0, $t1
        b     more
        .endp
`
		for _, pol := range storePolicies {
			t.Run(w.store+"/"+pol.name, func(t *testing.T) {
				c := newStoreCPU(t, assembleT(t, first), cache.Config{})
				code, err := runPolicy(c, pol.functional)
				if err != nil || code != 0x55 {
					t.Fatalf("exit %#x, err %v; want 0x55", code, err)
				}
				if !c.Mem.Backed(0x30000000) {
					t.Error("the stored-to page is not backed")
				}
				c = newStoreCPU(t, assembleT(t, runaway), cache.Config{})
				_, err = runPolicy(c, pol.functional)
				if !errors.Is(err, mem.ErrBacked) {
					t.Fatalf("runaway stores: err %v, want mem.ErrBacked", err)
				}
				if want := fmt.Sprintf("cpu: store at %#x to ", c.PC()); !strings.HasPrefix(err.Error(), want) {
					t.Errorf("runaway stores: error %q, want it to begin %q", err, want)
				}
			})
		}
	}
}
