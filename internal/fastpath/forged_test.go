package fastpath_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	rtd "repro"
	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/fastpath"
	"repro/internal/mem"
	"repro/internal/program"
)

// sortCheckpoint checkpoints testdata/sort.s, compressed with opts,
// after 300 detailed user instructions.
func sortCheckpoint(t testing.TB, opts rtd.Options) *fastpath.Checkpoint {
	t.Helper()
	c, _ := newMachine(t, loadCompressed(t, "sort.s", opts))
	if _, err := c.RunDetailedFor(300); err != nil {
		t.Fatal(err)
	}
	return fastpath.Capture(c, nil)
}

// forged returns the crafted checkpoints, each derived from a real
// dict+RF checkpoint of sort.s by one forged field group, keyed by
// what each used to make, or would make, the simulator do.
func forged(t testing.TB) map[string]*fastpath.Checkpoint {
	t.Helper()
	base := func() *fastpath.Checkpoint {
		return sortCheckpoint(t, rtd.Options{Scheme: rtd.SchemeDict, ShadowRF: true})
	}
	bank := base()
	bank.Machine.Bank = 2
	handler := base()
	handler.Machine.HandlerPC, handler.Machine.HandlerEnd = 16, 0xFFFFFFF0
	region := base()
	region.Machine.CompStart, region.Machine.CompEnd = 0, 0xFFFFFFFC
	region.Machine.FStore = []cpu.FStoreWord{{Addr: 0x00800000, Word: 0x24020001}}
	// One page more than mem.MaxBacked holds; Restore counts the pages
	// before it reads any, so they are left empty.
	pages := base()
	pages.Memory.Pages = make([]mem.PageState, mem.MaxBacked>>16+1)
	for i := range pages.Memory.Pages {
		pages.Memory.Pages[i].Index = uint32(i)
	}
	return map[string]*fastpath.Checkpoint{
		"bank-index-panic":       bank,
		"handler-predecode-21GB": handler,
		"functional-store-4GiB":  region,
		"memory-past-bound":      pages,
	}
}

// seal writes payload as a checkpoint file with a valid envelope, as
// Save would: schema version, SHA-256 of the payload, the payload.
func seal(t testing.TB, dir string, payload []byte) string {
	t.Helper()
	sum := sha256.Sum256(payload)
	data := fmt.Appendf(nil, `{"schema_version":%d,"sha256":%q,"checkpoint":%s}`,
		fastpath.CheckpointSchema, hex.EncodeToString(sum[:]), payload)
	path := filepath.Join(dir, "ck.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// loadApply loads path and applies it, returning the bytes allocated
// on the way.
func loadApply(path string) (*cpu.CPU, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ck, _, err := fastpath.Load(path)
	var c *cpu.CPU
	if err == nil {
		c, err = ck.Apply()
	}
	runtime.ReadMemStats(&after)
	return c, after.TotalAlloc - before.TotalAlloc, err
}

// TestForgedCheckpointsRefused: checkpoints whose register bank, handler
// extent, compressed region or page count no run could produce are
// refused by Apply with an ErrInvalidCheckpoint error, before anything
// is sized by the forged geometry. Unchecked, the first three panicked
// with an index out of range, or died out of memory asking for 21 GB
// and 4 GiB.
func TestForgedCheckpointsRefused(t *testing.T) {
	dir := t.TempDir()
	good := sortCheckpoint(t, rtd.Options{Scheme: rtd.SchemeDict, ShadowRF: true})
	if err := good.Save(filepath.Join(dir, "good.json")); err != nil {
		t.Fatal(err)
	}
	_, goodAlloc, err := loadApply(filepath.Join(dir, "good.json"))
	if err != nil {
		t.Fatalf("genuine checkpoint refused: %v", err)
	}
	for name, ck := range forged(t) {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "forged.json")
			if err := ck.Save(path); err != nil {
				t.Fatal(err)
			}
			_, alloc, err := loadApply(path)
			if err == nil {
				t.Fatal("forged checkpoint applied")
			}
			if !errors.Is(err, fastpath.ErrInvalidCheckpoint) {
				t.Errorf("want an error wrapping fastpath.ErrInvalidCheckpoint, got: %v", err)
			}
			if name == "memory-past-bound" && !errors.Is(err, mem.ErrBacked) {
				t.Errorf("want the page count refused with mem.ErrBacked, got: %v", err)
			}
			// Refusing costs what loading the genuine file costs, not
			// anything proportional to the forged extent.
			if alloc > 2*goodAlloc+1<<20 {
				t.Errorf("refusal allocated %d bytes; the genuine checkpoint needs %d", alloc, goodAlloc)
			}
		})
	}
}

// TestCheckpointHandlerInLastPage: handler RAM ending exactly at 2^32,
// which a checkpoint records with an end of 0, is accepted when its
// page is backed and comes back with the same extent; unbacked, it is
// refused.
func TestCheckpointHandlerInLastPage(t *testing.T) {
	ck := sortCheckpoint(t, rtd.Options{Scheme: rtd.SchemeDict, ShadowRF: true})
	ck.Machine.HandlerPC, ck.Machine.HandlerEnd = 0xFFFF0000, 0
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := ck.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadApply(path); !errors.Is(err, fastpath.ErrInvalidCheckpoint) {
		t.Fatalf("handler RAM on an unbacked page: want ErrInvalidCheckpoint, got %v", err)
	}
	ck.Memory.Pages = append(ck.Memory.Pages, mem.PageState{Index: 0xFFFF, Data: make([]byte, 1<<16)})
	if err := ck.Save(path); err != nil {
		t.Fatal(err)
	}
	c, _, err := loadApply(path)
	if err != nil {
		t.Fatalf("handler RAM ending at 2^32 refused: %v", err)
	}
	if st := c.CaptureState(); st.HandlerPC != 0xFFFF0000 || st.HandlerEnd != 0 {
		t.Fatalf("restored handler extent [%#x, %#x), want [0xffff0000, 0)", st.HandlerPC, st.HandlerEnd)
	}
}

// TestForgedImageRegionRefused: a dict image whose compressed region
// is unaligned, reversed, oversized or runs past its own .text segment
// decodes, but cpu.Load refuses it with an ErrInvalidImage error before
// anything is sized by the region. Unchecked, a region claiming
// 256 MiB loads, and the functional engine then allocates 1.6 GiB.
func TestForgedImageRegionRefused(t *testing.T) {
	good := loadCompressed(t, "sort.s", rtd.Options{Scheme: rtd.SchemeDict})
	data, err := program.Encode(good)
	if err != nil {
		t.Fatal(err)
	}
	s, e := good.Compress.CompStart, good.Compress.CompEnd
	// run decodes data with the region forged to [fs, fe), loads it and,
	// if that succeeds, runs it on the functional engine, returning the
	// bytes allocated on the way.
	run := func(fs, fe uint32) (uint64, error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		im, err := program.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		im.Compress.CompStart, im.Compress.CompEnd = fs, fe
		c, err := cpu.New(rtd.DefaultMachine())
		if err != nil {
			t.Fatal(err)
		}
		c.Out = io.Discard
		if err = c.Load(im); err == nil {
			_, err = fastpath.Functional(c)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, err
	}
	goodAlloc, err := run(s, e)
	if err != nil {
		t.Fatalf("genuine image refused: %v", err)
	}
	for name, r := range map[string][2]uint32{
		"oversized-256MiB": {s, s + 256<<20},
		"past-text":        {s, e + 4},
		"unaligned":        {s + 2, e},
		"reversed":         {e, s},
		"whole-space":      {0, 0xFFFFFFFC},
	} {
		t.Run(name, func(t *testing.T) {
			alloc, err := run(r[0], r[1])
			if !errors.Is(err, cpu.ErrInvalidImage) {
				t.Fatalf("want an error wrapping cpu.ErrInvalidImage, got: %v", err)
			}
			if alloc > 2*goodAlloc+1<<20 {
				t.Errorf("refusal allocated %d bytes; the genuine image needs %d", alloc, goodAlloc)
			}
		})
	}
}

// TestCheckpointConfigRefused: a checkpoint configuration cpu.New would
// have panicked on (predictor size, bus width) or that sizes the
// predecode store beyond the bound is an error too.
func TestCheckpointConfigRefused(t *testing.T) {
	for name, forge := range map[string]func(*fastpath.Checkpoint){
		"predictor-not-power-of-two": func(ck *fastpath.Checkpoint) { ck.Config.PredictorEntries = 3 },
		"zero-bus-width":             func(ck *fastpath.Checkpoint) { ck.Config.Bus.WidthBytes = 0 },
		"huge-icache": func(ck *fastpath.Checkpoint) {
			ck.Config.ICache.SizeBytes, ck.Config.ICache.LineBytes = 1<<30, 1<<28
		},
	} {
		t.Run(name, func(t *testing.T) {
			ck := sortCheckpoint(t, rtd.Options{})
			forge(ck)
			if _, err := ck.Apply(); err == nil {
				t.Fatal("forged configuration applied")
			}
		})
	}
}

// FuzzCheckpointLoad: whatever a checkpoint payload holds, Load either
// refuses it or decodes it, Apply either refuses the result or builds a
// CPU, and that CPU runs 10 000 instructions without panicking (errors
// are fine). The fuzzed bytes are the payload, sealed into a file with
// a valid digest, because the digest would otherwise refuse nearly
// every mutation before the decoder and Apply see it.
//
// The fuzzed payload holds the configuration and the core state, where
// the geometry lives. The bulky snapshots (memory pages, caches and
// predictor: 99% of a checkpoint's bytes, which would make every
// execution and minimisation step slow) are held out of it and, when
// the decoded payload lacks them, taken from the plain or the dict+RF
// seed, as the second argument selects.
func FuzzCheckpointLoad(f *testing.F) {
	held := map[bool]*fastpath.Checkpoint{}
	add := func(ck *fastpath.Checkpoint, dict bool) {
		held[dict] = ck
		core := *ck
		core.ICache, core.DCache, core.Bpred = cache.State{}, cache.State{}, bpred.State{}
		if ck.Memory.Pages[0].Data != nil { // a forged page count's empty pages stay
			core.Memory = mem.State{}
		}
		payload, err := json.Marshal(core)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload, dict)
	}
	add(sortCheckpoint(f, rtd.Options{}), false)
	for _, name := range []string{"bank-index-panic", "handler-predecode-21GB", "functional-store-4GiB", "memory-past-bound"} {
		add(forged(f)[name], true)
	}
	add(sortCheckpoint(f, rtd.Options{Scheme: rtd.SchemeDict, ShadowRF: true}), true)
	f.Fuzz(func(t *testing.T, payload []byte, dict bool) {
		ck, _, err := fastpath.Load(seal(t, t.TempDir(), payload))
		if err != nil {
			return
		}
		seed := held[dict]
		if ck.Memory.Pages == nil {
			ck.Memory = seed.Memory
		}
		if ck.ICache.Sets == nil {
			ck.ICache = seed.ICache
		}
		if ck.DCache.Sets == nil {
			ck.DCache = seed.DCache
		}
		if ck.Bpred.Table == nil {
			ck.Bpred = seed.Bpred
		}
		c, err := ck.Apply()
		if err != nil {
			return
		}
		c.Cfg.MaxInstr = 10_000
		c.Out = io.Discard
		_, _ = c.Run() // any error is an acceptable outcome; a panic is not
	})
}
