package fastpath_test

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	rtd "repro"
	"repro/internal/cpu"
	"repro/internal/fastpath"
	"repro/internal/obs"
)

// loadCompressed assembles a corpus program and compresses it with the
// paper's dictionary scheme — the state-richest configuration: handler
// RAM, swic-filled I-cache lines, shadow state, exception counters.
func loadCompressed(t testing.TB, name string, opts rtd.Options) *rtd.Image {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	im, err := rtd.Assemble(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	if opts.Scheme == "" {
		return im
	}
	res, err := rtd.Compress(im, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res.Image
}

func newMachine(t testing.TB, im *rtd.Image) (*cpu.CPU, *bytes.Buffer) {
	t.Helper()
	cfg := rtd.DefaultMachine()
	cfg.MaxInstr = 100_000_000
	c, err := cpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	c.Out = &out
	if err := c.Load(im); err != nil {
		t.Fatal(err)
	}
	return c, &out
}

// finish runs c to completion and returns its exit code.
func finish(t *testing.T, c *cpu.CPU) int32 {
	t.Helper()
	code, err := c.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return code
}

// roundTrip checkpoints c through the on-disk format and returns the
// resumed machine, verifying the file round-trips bit-identically.
func roundTrip(t *testing.T, c *cpu.CPU) (*cpu.CPU, *bytes.Buffer) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ck.json")
	ck := fastpath.Capture(c, nil)
	if err := ck.Save(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, _, err := fastpath.Load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !reflect.DeepEqual(ck, got) {
		t.Fatal("checkpoint did not round-trip through disk bit-identically")
	}
	resumed, err := got.Apply()
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	var out bytes.Buffer
	resumed.Out = &out
	return resumed, &out
}

// compareFinal asserts two finished machines are architecturally and
// statistically identical: a resumed run must retire the same
// instructions and charge the same cycles as the uninterrupted one.
func compareFinal(t *testing.T, ref, got *cpu.CPU) {
	t.Helper()
	if ref.Stats != got.Stats {
		t.Errorf("stats diverge:\nreference %+v\nresumed   %+v", ref.Stats, got.Stats)
	}
	if ref.FStats != got.FStats {
		t.Errorf("functional stats diverge: reference %+v, resumed %+v", ref.FStats, got.FStats)
	}
	a, b := ref.CaptureState(), got.CaptureState()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("machine state diverges:\nreference %+v\nresumed   %+v", a, b)
	}
	if !reflect.DeepEqual(ref.Mem.Snapshot(), got.Mem.Snapshot()) {
		t.Error("memory diverges after resume")
	}
	if !reflect.DeepEqual(ref.IC.Snapshot(), got.IC.Snapshot()) {
		t.Error("I-cache diverges after resume")
	}
	if !reflect.DeepEqual(ref.DC.Snapshot(), got.DC.Snapshot()) {
		t.Error("D-cache diverges after resume")
	}
	if !reflect.DeepEqual(ref.BP.Snapshot(), got.BP.Snapshot()) {
		t.Error("branch predictor diverges after resume")
	}
}

// TestCheckpointRoundTripBoundaries checkpoints after exactly N detailed
// steps — including the N=1 boundary — and requires the resumed run to
// finish bit-identically to an uninterrupted reference, output included.
func TestCheckpointRoundTripBoundaries(t *testing.T) {
	im := loadCompressed(t, "queens.s", rtd.Options{Scheme: rtd.SchemeDict})
	ref, refOut := newMachine(t, im)
	refCode := finish(t, ref)

	for _, n := range []int{1, 100, 1000} {
		t.Run(fmt.Sprintf("steps=%d", n), func(t *testing.T) {
			c, preOut := newMachine(t, im)
			for i := 0; i < n; i++ {
				if err := c.StepUser(1); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
			}
			resumed, postOut := roundTrip(t, c)
			code := finish(t, resumed)
			if code != refCode {
				t.Errorf("exit code %d, reference %d", code, refCode)
			}
			if got := preOut.String() + postOut.String(); got != refOut.String() {
				t.Errorf("output %q, reference %q", got, refOut.String())
			}
			compareFinal(t, ref, resumed)
		})
	}
}

// TestCheckpointMidHandler captures inside an active decompression
// handler burst — the EXL bit set, the shadow bank live, the handler
// partway through a swic sequence — and requires a bit-identical finish.
func TestCheckpointMidHandler(t *testing.T) {
	for _, opts := range []rtd.Options{
		{Scheme: rtd.SchemeDict},
		{Scheme: rtd.SchemeDict, ShadowRF: true},
	} {
		label := "singleRF"
		if opts.ShadowRF {
			label = "shadowRF"
		}
		t.Run(label, func(t *testing.T) {
			im := loadCompressed(t, "sort.s", opts)
			ref, refOut := newMachine(t, im)
			refCode := finish(t, ref)

			c, preOut := newMachine(t, im)
			for !c.InHandler() {
				if err := c.StepUser(1); err != nil {
					t.Fatal(err)
				}
				if h, _ := c.Halted(); h {
					t.Fatal("program halted before entering the handler")
				}
			}
			// A few instructions deep into the burst, not just the entry.
			for i := 0; i < 10 && c.InHandler(); i++ {
				if err := c.StepUser(1); err != nil {
					t.Fatal(err)
				}
			}
			st := c.CaptureState()
			if !st.InHandler {
				t.Fatal("lost the handler before capturing; deepen the corpus program")
			}
			resumed, postOut := roundTrip(t, c)
			if !resumed.InHandler() {
				t.Fatal("resumed machine is not in the handler")
			}
			code := finish(t, resumed)
			if code != refCode {
				t.Errorf("exit code %d, reference %d", code, refCode)
			}
			if got := preOut.String() + postOut.String(); got != refOut.String() {
				t.Errorf("output %q, reference %q", got, refOut.String())
			}
			compareFinal(t, ref, resumed)
		})
	}
}

// TestCheckpointMidLoadUse captures with an in-flight load-use hazard
// (LastLoad armed): the pipeline's only cross-instruction timing state
// must survive the round trip or the resumed run charges different
// stall cycles.
func TestCheckpointMidLoadUse(t *testing.T) {
	im := loadCompressed(t, "sort.s", rtd.Options{Scheme: rtd.SchemeDict})
	ref, refOut := newMachine(t, im)
	refCode := finish(t, ref)

	c, preOut := newMachine(t, im)
	found := false
	for i := 0; i < 500; i++ {
		if err := c.StepUser(1); err != nil {
			t.Fatal(err)
		}
		if c.CaptureState().LastLoad >= 0 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no load observed in the first 500 steps; pick a loadier program")
	}
	resumed, postOut := roundTrip(t, c)
	code := finish(t, resumed)
	if code != refCode {
		t.Errorf("exit code %d, reference %d", code, refCode)
	}
	if got := preOut.String() + postOut.String(); got != refOut.String() {
		t.Errorf("output %q, reference %q", got, refOut.String())
	}
	compareFinal(t, ref, resumed)
}

// TestCheckpointMidSample captures in the middle of a sampled run —
// after a functional interval has populated the fstore — and resumes
// with plain detailed execution; the architectural end state must match
// a pure detailed run (timing differs by construction, so only
// architecture is compared).
func TestCheckpointMidSample(t *testing.T) {
	im := loadCompressed(t, "queens.s", rtd.Options{Scheme: rtd.SchemeDict})
	ref, refOut := newMachine(t, im)
	refCode := finish(t, ref)

	c, preOut := newMachine(t, im)
	if halted, err := c.RunDetailedFor(200); err != nil || halted {
		t.Fatalf("detailed window: halted=%v err=%v", halted, err)
	}
	if halted, err := c.RunFunctionalFor(500); err != nil || halted {
		t.Fatalf("functional interval: halted=%v err=%v", halted, err)
	}
	if len(c.FStoreSnapshot()) == 0 {
		t.Fatal("functional interval materialised no code; fstore not exercised")
	}
	resumed, postOut := roundTrip(t, c)
	if !reflect.DeepEqual(c.FStoreSnapshot(), resumed.FStoreSnapshot()) {
		t.Fatal("fstore did not survive the checkpoint")
	}
	code := finish(t, resumed)
	if code != refCode {
		t.Errorf("exit code %d, reference %d", code, refCode)
	}
	if got := preOut.String() + postOut.String(); got != refOut.String() {
		t.Errorf("output %q, reference %q", got, refOut.String())
	}
	for r := 0; r < 32; r++ {
		if r == 26 || r == 27 {
			continue
		}
		if a, b := ref.UserReg(r), resumed.UserReg(r); a != b {
			t.Errorf("$%d: reference %#x, resumed %#x", r, a, b)
		}
	}
}

// TestCheckpointManifestProvenance: a manifest-carrying checkpoint keeps
// the provenance stanza across the disk round trip.
func TestCheckpointManifestProvenance(t *testing.T) {
	im := loadCompressed(t, "sort.s", rtd.Options{Scheme: rtd.SchemeDict})
	c, _ := newMachine(t, im)
	for i := 0; i < 50; i++ {
		if err := c.StepUser(1); err != nil {
			t.Fatal(err)
		}
	}
	man := obs.New("fastpath-test")
	ck := fastpath.Capture(c, man)
	if ck.Manifest == nil || ck.Manifest.Tool != "fastpath-test" {
		t.Fatalf("manifest stanza missing or wrong: %+v", ck.Manifest)
	}
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := ck.Save(path); err != nil {
		t.Fatal(err)
	}
	got, _, err := fastpath.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Manifest == nil || got.Manifest.Tool != "fastpath-test" {
		t.Fatalf("manifest lost in round trip: %+v", got.Manifest)
	}
}

// TestCheckpointRefusals: truncated, corrupted and wrong-schema files
// are rejected, never partially applied, and the schema error names
// both versions.
func TestCheckpointRefusals(t *testing.T) {
	im := loadCompressed(t, "sort.s", rtd.Options{Scheme: rtd.SchemeDict})
	c, _ := newMachine(t, im)
	for i := 0; i < 100; i++ {
		if err := c.StepUser(1); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	if err := fastpath.Capture(c, nil).Save(good); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncated", func(t *testing.T) {
		path := filepath.Join(dir, "trunc.json")
		if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := fastpath.Load(path); err == nil {
			t.Fatal("truncated checkpoint accepted")
		}
	})

	t.Run("corrupted", func(t *testing.T) {
		// Same-length field rename keeps the JSON well-formed, so only
		// the digest can catch it.
		mangled := bytes.Replace(data, []byte(`"Cycles":`), []byte(`"CycleX":`), 1)
		if bytes.Equal(mangled, data) {
			t.Fatal("corruption had no effect; field name changed?")
		}
		path := filepath.Join(dir, "corrupt.json")
		if err := os.WriteFile(path, mangled, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := fastpath.Load(path)
		if err == nil {
			t.Fatal("corrupted checkpoint accepted")
		}
		if !strings.Contains(err.Error(), "digest mismatch") {
			t.Errorf("want a digest-mismatch error, got: %v", err)
		}
	})

	t.Run("schema-mismatch", func(t *testing.T) {
		path := filepath.Join(dir, "future.json")
		future := []byte(`{"schema_version":99,"sha256":"","checkpoint":{}}`)
		if err := os.WriteFile(path, future, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := fastpath.Load(path)
		if err == nil {
			t.Fatal("future-schema checkpoint accepted")
		}
		if !strings.Contains(err.Error(), "v99") || !strings.Contains(err.Error(), fmt.Sprintf("v%d", fastpath.CheckpointSchema)) {
			t.Errorf("schema error must name both versions, got: %v", err)
		}
	})

	t.Run("apply-schema-mismatch", func(t *testing.T) {
		ck := fastpath.Capture(c, nil)
		ck.SchemaVersion = 2
		_, err := ck.Apply()
		if err == nil {
			t.Fatal("wrong-schema checkpoint applied")
		}
		if !strings.Contains(err.Error(), "v2") || !strings.Contains(err.Error(), "v1") {
			t.Errorf("apply schema error must name both versions, got: %v", err)
		}
	})
}

// TestCheckpointDeterministicEncoding: the same machine state saves to
// byte-identical files (no map-ordered output in the encoder).
func TestCheckpointDeterministicEncoding(t *testing.T) {
	im := loadCompressed(t, "queens.s", rtd.Options{Scheme: rtd.SchemeDict})
	c, _ := newMachine(t, im)
	if _, err := c.RunDetailedFor(200); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunFunctionalFor(500); err != nil {
		t.Fatal(err) // populate the fstore: the one map in the state
	}
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	ck := fastpath.Capture(c, nil)
	if err := ck.Save(a); err != nil {
		t.Fatal(err)
	}
	if err := ck.Save(b); err != nil {
		t.Fatal(err)
	}
	da, _ := os.ReadFile(a)
	db, _ := os.ReadFile(b)
	if !bytes.Equal(da, db) {
		t.Fatal("two saves of one state differ; encoding is not deterministic")
	}
}

// TestCheckpointSwicLinesUnderPredecodeCheck captures while the
// I-cache holds lines the decompressor wrote with swic, resumes under
// the PredecodeCheck oracle, and requires every fetch after Apply to
// see the restored bytes (a stale record is a run error) and the run
// to finish bit-identically.
func TestCheckpointSwicLinesUnderPredecodeCheck(t *testing.T) {
	im := loadCompressed(t, "sort.s", rtd.Options{Scheme: rtd.SchemeDict, ShadowRF: true})
	ref, _ := newMachine(t, im)
	ref.Cfg.PredecodeCheck = true
	refCode := finish(t, ref)
	for _, n := range []int{300, 700} {
		t.Run(fmt.Sprintf("steps=%d", n), func(t *testing.T) {
			c, _ := newMachine(t, im)
			c.Cfg.PredecodeCheck = true
			for i := 0; i < n; i++ {
				if err := c.StepUser(1); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
			}
			resident := 0
			ic := c.IC.Snapshot()
			for set, ways := range ic.Sets {
				for _, ln := range ways {
					addr := (ln.Tag*uint32(len(ic.Sets)) + uint32(set)) * uint32(ic.Config.LineBytes)
					if ln.Valid && c.InCompressedRegion(addr) {
						resident++
					}
				}
			}
			if c.IC.Stats.SwicLines == 0 || resident == 0 {
				t.Fatalf("no swic-written lines resident at the checkpoint (%d claimed)", c.IC.Stats.SwicLines)
			}
			resumed, _ := roundTrip(t, c)
			if !resumed.Cfg.PredecodeCheck {
				t.Fatal("checkpoint lost the PredecodeCheck setting")
			}
			if code := finish(t, resumed); code != refCode {
				t.Errorf("exit code %d, reference %d", code, refCode)
			}
			compareFinal(t, ref, resumed)
		})
	}
}

// TestCheckpointSubWordICacheLine: a checkpoint whose configuration
// has an I-cache line shorter than an instruction is refused with an
// error by Apply, not a panic at the first fetch.
func TestCheckpointSubWordICacheLine(t *testing.T) {
	im := loadCompressed(t, "sort.s", rtd.Options{})
	c, _ := newMachine(t, im)
	ck := fastpath.Capture(c, nil)
	ck.Config.ICache.LineBytes = 2
	if _, err := ck.Apply(); err == nil {
		t.Fatal("Apply accepted a 2-byte I-cache line")
	} else if !strings.Contains(err.Error(), "I-cache") {
		t.Errorf("error does not name the I-cache: %v", err)
	}
}

// TestCheckpointParentFormat restores a checkpoint saved by an earlier
// build (queens.s under dict, captured after 200 detailed and 500
// functional user instructions). Its fstats carry a "Blocks" counter
// and its config a "FunctionalWarm" switch that this build no longer
// has; encoding/json drops both, and the resumed run must finish with
// the architectural state of an uninterrupted detailed run.
func TestCheckpointParentFormat(t *testing.T) {
	gz, err := os.Open(filepath.Join("..", "..", "testdata", "checkpoint-v1-parent.json.gz"))
	if err != nil {
		t.Fatal(err)
	}
	defer gz.Close()
	zr, err := gzip.NewReader(gz)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"Blocks":45`, `"FunctionalWarm":false`} {
		if !bytes.Contains(raw, []byte(key)) {
			t.Fatalf("fixture lacks %s: it no longer pins the earlier format", key)
		}
	}
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	ck, _, err := fastpath.Load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	c, err := ck.Apply()
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	c.Out = &bytes.Buffer{}
	if fs := c.FStats; fs.Instrs != 500 || fs.HandlerInstrs != 498 || fs.Exceptions != 6 {
		t.Errorf("restored fstats %+v, want 500 user, 498 handler instructions and 6 exceptions", fs)
	}
	ref, _ := newMachine(t, loadCompressed(t, "queens.s", rtd.Options{Scheme: rtd.SchemeDict}))
	if code, refCode := finish(t, c), finish(t, ref); code != refCode {
		t.Errorf("exit code %d, reference %d", code, refCode)
	}
	if got := c.Stats.Instrs + c.FStats.Instrs; got != ref.Stats.Instrs {
		t.Errorf("user instructions %d, reference %d", got, ref.Stats.Instrs)
	}
	for r := 0; r < 32; r++ {
		if r == 26 || r == 27 {
			continue
		}
		if a, b := ref.UserReg(r), c.UserReg(r); a != b {
			t.Errorf("$%d: reference %#x, resumed %#x", r, a, b)
		}
	}
}
