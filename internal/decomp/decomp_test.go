package decomp

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/compress/dict"
	"repro/internal/isa"
	"repro/internal/program"
)

func allVariants() []Variant {
	return []Variant{
		{Scheme: program.SchemeDict},
		{Scheme: program.SchemeDict, ShadowRF: true},
		{Scheme: program.SchemeDict, IndexBits: dict.Index8},
		{Scheme: program.SchemeDict, ShadowRF: true, IndexBits: dict.Index8},
		{Scheme: program.SchemeCodePack},
		{Scheme: program.SchemeCodePack, ShadowRF: true},
		{Scheme: program.SchemeProcDict},
		{Scheme: program.SchemeProcDict, ShadowRF: true},
		{Scheme: "copy"},
	}
}

func TestAllHandlersAssemble(t *testing.T) {
	for _, v := range allVariants() {
		seg, err := Build(v)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if seg.Base != program.HandlerBase {
			t.Fatalf("%v: base %#x", v, seg.Base)
		}
		// Every word must be a legal instruction and the last one an iret.
		for a := seg.Base; a < seg.End(); a += 4 {
			if isa.Classify(seg.Word(a)) == isa.KindIllegal {
				t.Fatalf("%v: illegal instruction at %#x", v, a)
			}
		}
		last := seg.Word(seg.End() - 4)
		if isa.Classify(last) != isa.KindIret {
			t.Fatalf("%v: last instruction is %s, want iret",
				v, isa.Disassemble(seg.End()-4, last))
		}
	}
}

func TestHandlerSizes(t *testing.T) {
	// The paper reports 26 instructions for the dictionary handler
	// (Figure 2) and 208 for CodePack. Our ISA lacks reg+reg load
	// addressing, so ours are slightly larger; assert the same order of
	// magnitude and the expected orderings.
	sizes := map[string]int{}
	for _, v := range allVariants() {
		seg, err := Build(v)
		if err != nil {
			t.Fatal(err)
		}
		sizes[v.String()] = len(seg.Data) / 4
	}
	d := sizes["dict"]
	if d < 20 || d > 32 {
		t.Fatalf("dict handler = %d instructions, paper has 26", d)
	}
	cp := sizes["codepack"]
	if cp < 120 || cp > 300 {
		t.Fatalf("codepack handler = %d instructions, paper has 208", cp)
	}
	if sizes["dict+RF"] <= sizes["dict"] {
		t.Fatal("unrolled RF dictionary handler should be bigger (static) than the loop version")
	}
	if sizes["codepack+RF"] >= sizes["codepack"] {
		t.Fatal("RF CodePack handler should be smaller (no save/restore)")
	}
}

func TestSwicAndIretPresent(t *testing.T) {
	for _, v := range allVariants() {
		seg, err := Build(v)
		if err != nil {
			t.Fatal(err)
		}
		haveSwic := false
		for a := seg.Base; a < seg.End(); a += 4 {
			if isa.Classify(seg.Word(a)) == isa.KindSwic {
				haveSwic = true
			}
		}
		if !haveSwic {
			t.Fatalf("%v: handler never writes the I-cache", v)
		}
	}
}

func TestSourceIsReadable(t *testing.T) {
	src, err := Source(Variant{Scheme: program.SchemeDict})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mfc0", "$c0_badva", "swic", "iret", "Figure 2"} {
		if !strings.Contains(src, want) {
			t.Fatalf("dictionary source missing %q", want)
		}
	}
	if _, err := Source(Variant{Scheme: "nope"}); err == nil {
		t.Fatal("unknown scheme must error")
	}
}

func TestVariantString(t *testing.T) {
	cases := map[string]Variant{
		"dict":        {Scheme: program.SchemeDict},
		"dict+RF":     {Scheme: program.SchemeDict, ShadowRF: true},
		"dict8":       {Scheme: program.SchemeDict, IndexBits: dict.Index8},
		"codepack+RF": {Scheme: program.SchemeCodePack, ShadowRF: true},
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

// TestBuildSourceCopies checks that the assembled-handler cache hands
// every caller its own segment, from several goroutines at once: a
// caller patching its handler must not change the next one's.
func TestBuildSourceCopies(t *testing.T) {
	src, err := Source(Variant{Scheme: program.SchemeDict, ShadowRF: true})
	if err != nil {
		t.Fatal(err)
	}
	first, err := BuildSource("dict+RF", src)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), first.Data...)
	for i := range first.Data {
		first.Data[i] = 0xFF
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				seg, err := BuildSource("dict+RF", src)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(seg.Data, want) {
					t.Error("a patched handler leaked into a later build")
					return
				}
				seg.Data[0] ^= 1
			}
		}()
	}
	wg.Wait()
	if _, err := BuildSource("broken", "        .section .decompressor, 0x7F000000\n        bogus\n"); err == nil {
		t.Fatal("a handler that does not assemble must error")
	}
}
