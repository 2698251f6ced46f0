package core_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/program"
	"repro/internal/selective"
	"repro/internal/synth"
)

// The compressed-image digest golden pins the bytes of the whole
// compress path (layout, relocation, every codec's encoder and the
// installed handler) by the SHA-256 of each encoded image:
//
//   - every benchmark stand-in under every registered codec, with and
//     without the shadow register file;
//   - one profile-guided selection per codec;
//   - one explicit placement order;
//   - through dict8, the dictionary-overflow spill of every stand-in.
//
// The digests are a recording (testdata/compress.digest). Run
//
//	go test -run TestCompressDigestGolden -update-digest ./internal/core
//
// to re-record after a deliberate change to the compressed format.

var updateDigest = flag.Bool("update-digest", false, "rewrite testdata/compress.digest")

const digestGolden = "testdata/compress.digest"

// digestScale keeps the stand-ins small: it sets the dynamic length
// only, so the text, and with it every compressed image, is the same
// at any scale.
const digestScale = 0.05

func TestCompressDigestGolden(t *testing.T) {
	got := compressDigests(t)
	if *updateDigest {
		if err := os.WriteFile(digestGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(digestGolden)
	if err != nil {
		t.Fatalf("%v (run with -update-digest to record it)", err)
	}
	if got == string(want) {
		return
	}
	wantLines := digestMap(string(want))
	gotLines := digestMap(got)
	for _, k := range sortedKeys(wantLines, gotLines) {
		if wantLines[k] != gotLines[k] {
			t.Errorf("%s: digest %q, golden %q", k, gotLines[k], wantLines[k])
		}
	}
}

// compressDigests returns one "case digest" line per compression.
func compressDigests(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	record := func(name string, native *program.Image, cdc codec.Codec, opts core.Options) {
		res, err := core.CompressWith(native, cdc, opts)
		if err != nil {
			fmt.Fprintf(&b, "%s error: %v\n", name, err)
			return
		}
		enc, err := program.Encode(res.Image)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		fmt.Fprintf(&b, "%s %x\n", name, sha256.Sum256(enc))
	}
	lookup := func(name string) codec.Codec {
		cdc, err := codec.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		return cdc
	}

	for _, p := range synth.Benchmarks() {
		native, err := synth.Build(p.Scale(digestScale))
		if err != nil {
			t.Fatal(err)
		}
		for _, cdc := range codec.All() {
			for _, rf := range []bool{false, true} {
				record(fmt.Sprintf("%s/%s/rf=%v", p.Name, cdc.Name(), rf),
					native, cdc, core.Options{ShadowRF: rf})
			}
		}
	}

	p, _ := synth.ByName("pegwit")
	native, err := synth.Build(p.Scale(digestScale))
	if err != nil {
		t.Fatal(err)
	}
	prof, _, err := selective.Profile(native, cpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sel := selective.Select(prof, selective.ByMisses, 0.10)
	if len(sel) == 0 {
		t.Fatal("the selection keeps nothing native")
	}
	for _, cdc := range codec.All() {
		record("pegwit/select-miss-10/"+cdc.Name(), native, cdc,
			core.Options{ShadowRF: true, NativeProcs: sel})
	}

	var reversed []string
	for i := len(native.Procs) - 1; i >= 0; i-- {
		reversed = append(reversed, native.Procs[i].Name)
	}
	record("pegwit/order-reversed/dict", native, lookup("dict"),
		core.Options{ShadowRF: true, Order: reversed})

	// dict8's 255-word capacity holds only the first procedures of a
	// stand-in: the rest spill to the native region.
	if spill, err := core.CompressWith(native, lookup("dict8"), core.Options{}); err != nil || spill.NativeBytes == 0 {
		t.Fatalf("dict8 on pegwit must spill: %v", err)
	}
	return b.String()
}

func digestMap(s string) map[string]string {
	out := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(s), "\n") {
		if k, v, ok := strings.Cut(line, " "); ok {
			out[k] = v
		}
	}
	return out
}

func sortedKeys(ms ...map[string]string) []string {
	seen := map[string]bool{}
	var keys []string
	for _, m := range ms {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

// BenchmarkCompress times one compression of the largest and the
// reference stand-in under each paper scheme, with the shadow register
// file as the benchmark workloads use it.
func BenchmarkCompress(b *testing.B) {
	for _, name := range []string{"cc1", "go"} {
		p, _ := synth.ByName(name)
		native, err := synth.Build(p.Scale(digestScale))
		if err != nil {
			b.Fatal(err)
		}
		for _, scheme := range []string{"dict", "dict8", "codepack"} {
			cdc, err := codec.Lookup(scheme)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(name+"/"+scheme, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := core.CompressWith(native, cdc, core.Options{ShadowRF: true}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
