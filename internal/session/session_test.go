package session

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/program"
)

func TestLegality(t *testing.T) {
	const (
		usage    = ""
		fastTier = "-mode functional supports none of -compare/-profile/-trace/-telemetry (detailed-engine observers)"
		capture  = "-checkpoint requires -mode exact (the fast tiers have no complete timing state to save)"
		restore  = "-restore supports only -stats observers (the image identity -profile/-trace/-telemetry/-json need is not part of a checkpoint)"
		sampled  = "-mode sampled supports only -format text/json (no trace/attribution observers)"
	)
	cases := []struct {
		name    string
		req     Request
		refused bool
		why     string
	}{
		{"exact with every observer", Request{Tool: "simrun", Mode: Exact, Observers: Attribution | Telemetry | TraceRing, Targets: 1}, false, ""},
		{"compare wants two images", Request{Tool: "simrun", Mode: Exact, Observers: Compare, Targets: 1}, true, usage},
		{"compare", Request{Tool: "simrun", Mode: Exact, Observers: Compare, Targets: 2}, false, ""},
		{"restored", Request{Tool: "simrun", Mode: Exact, Restore: true}, false, ""},
		{"restored functional", Request{Tool: "simrun", Mode: Functional, Restore: true}, false, ""},
		{"restore wants no image", Request{Tool: "simrun", Mode: Exact, Restore: true, Targets: 1}, true, usage},
		{"restored with attribution", Request{Tool: "simrun", Mode: Exact, Restore: true, Observers: Attribution}, true, restore},
		{"restored with capture", Request{Tool: "simrun", Mode: Exact, Restore: true, Observers: Capture}, true, "-restore and -checkpoint are mutually exclusive (a resumed run saves no checkpoint)"},
		// The capture rows keep the refusals they gave before.
		{"restored functional capture", Request{Tool: "simrun", Mode: Functional, Restore: true, Observers: Capture}, true, capture},
		{"restored capture with attribution", Request{Tool: "simrun", Mode: Exact, Restore: true, Observers: Capture | Attribution}, true, restore},
		{"restored with compare", Request{Tool: "simrun", Mode: Functional, Restore: true, Observers: Compare, Targets: 2}, true, "-restore and -compare are mutually exclusive"},
		{"functional with attribution", Request{Tool: "simrun", Mode: Functional, Observers: Attribution, Targets: 1}, true, fastTier},
		// The fast-tier row follows the target count: a malformed
		// invocation gets the usage alone.
		{"functional with attribution, no image", Request{Tool: "simrun", Mode: Functional, Observers: Attribution}, true, usage},
		// The capture row precedes it.
		{"sampled capture, no image", Request{Tool: "simrun", Mode: Sampled, Observers: Capture}, true, capture},
		{"capture with compare", Request{Tool: "simrun", Mode: Exact, Observers: Capture | Compare, Targets: 2}, true, "-checkpoint and -compare are mutually exclusive"},
		{"ccprof sampled", Request{Tool: "ccprof", Mode: Sampled}, false, ""},
		{"ccprof sampled with telemetry", Request{Tool: "ccprof", Mode: Sampled, Observers: Telemetry}, true, sampled},
		{"ccprof exact", Request{Tool: "ccprof", Mode: Exact, Observers: Attribution | Telemetry}, false, ""},
	}
	for _, tc := range cases {
		why, refused := tc.req.refusal()
		if refused != tc.refused || why != tc.why {
			t.Errorf("%s: refusal() = %q, %v; want %q, %v", tc.name, why, refused, tc.why, tc.refused)
		}
	}
}

func TestOpenRecordsEachTargetOnce(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("..", "..", "testdata", "sort.s")
	s := New("test", 16, 1_000_000, "", io.Discard)
	st, err := s.Open(src, "sort.s")
	if err != nil {
		t.Fatal(err)
	}
	if st.Encoded || st.Scheme() != "native" {
		t.Fatalf("assembled target: encoded %v, scheme %s", st.Encoded, st.Scheme())
	}
	img := filepath.Join(dir, "sort.img")
	if err := program.SaveFile(img, st.Image); err != nil {
		t.Fatal(err)
	}
	it, err := s.Open(img, img)
	if err != nil {
		t.Fatal(err)
	}
	if !it.Encoded {
		t.Fatal("image file target not marked encoded")
	}
	if err := s.RecordRunImage(it); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordRunImage(st); err != nil {
		t.Fatal(err)
	}
	in := s.Manifest.Inputs
	if len(in) != 4 || in[0].Name != "sort.s" || in[1].Name != img || in[2].Name != "run-image" || in[3].Name != "run-image" {
		t.Fatalf("inputs %+v", in)
	}
	// The image file, its reuse as the run image and the assembled
	// image encoded afresh all carry one digest.
	if in[1].SHA256 != in[2].SHA256 || in[2].SHA256 != in[3].SHA256 {
		t.Fatalf("run-image digests differ: %+v", in)
	}
	if _, err := Bench("no-such-benchmark", 1); err == nil {
		t.Fatal("unknown benchmark resolved")
	}
}

func TestFunctionalReportKeyOrder(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "sort.s"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sort.s")
	if err := os.WriteFile(path, src, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	s := New("test", 16, 1_000_000, "", &out)
	tg, err := s.Open(path, path)
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Machine(tg.Image)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunFunctional(c, path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Instrs == 0 || out.Len() == 0 {
		t.Fatalf("functional run did no work: %+v, output %q", rep, out.String())
	}
	var got, want bytes.Buffer
	if err := WriteJSON(&got, rep); err != nil {
		t.Fatal(err)
	}
	// The report was once a map, which encoding/json writes in key
	// order; the struct keeps those bytes.
	if err := WriteJSON(&want, map[string]any{
		"mode": "functional", "program": path, "exit_code": rep.ExitCode,
		"instrs": rep.Instrs, "handler_instrs": rep.HandlerInstrs, "exceptions": rep.Exceptions,
		"host_seconds": rep.HostSeconds, "mips": rep.MIPS,
	}); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("report JSON\n%s\nwant\n%s", got.String(), want.String())
	}
	var back map[string]any
	if err := json.Unmarshal(got.Bytes(), &back); err != nil || len(back) != 8 {
		t.Fatalf("report decodes to %v (%v)", back, err)
	}
}

// TestRestoreRecordsCheckpoint: a restored run's manifest names the
// checkpoint it ran from, with the digest of the file's bytes, and the
// checkpointed machine's I-cache size, not the session's -icache.
func TestRestoreRecordsCheckpoint(t *testing.T) {
	s := New("test", 16, 1_000_000, "", io.Discard)
	tg, err := s.Open(filepath.Join("..", "..", "testdata", "sort.s"), "sort.s")
	if err != nil {
		t.Fatal(err)
	}
	s.Config.ICache.SizeBytes = 4096
	c, err := s.Machine(tg.Image)
	if err != nil {
		t.Fatal(err)
	}
	ck := filepath.Join(t.TempDir(), "ck.json")
	if err := s.Capture(c, ck, 100); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}

	r := New("test", 64, 1_000_000, "", io.Discard)
	rc, err := r.Restore(ck)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Cfg.ICache.SizeBytes != 4096 {
		t.Fatalf("restored I-cache %d bytes, want the checkpoint's 4096", rc.Cfg.ICache.SizeBytes)
	}
	want := New("test", 16, 0, "", io.Discard).Manifest
	want.AddInput(ck, data)
	if in := r.Manifest.Inputs; len(in) != 1 || in[0] != want.Inputs[0] {
		t.Fatalf("restored run's inputs %+v, want %+v", in, want.Inputs)
	}
	if kb := r.Manifest.Config["icache_kb"]; kb != "4" {
		t.Fatalf("restored run's icache_kb %q, want the checkpoint's 4", kb)
	}
}

// TestStageSplit: a session hashes its inputs only when a manifest is
// emitted, and its sidecar splits the wall time into the stages the
// run went through, in order, while the embedded copy stays
// timing-free.
func TestStageSplit(t *testing.T) {
	src := filepath.Join("..", "..", "testdata", "sort.s")
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	sidecar := filepath.Join(t.TempDir(), "run.manifest.json")
	s := New("test", 16, 1_000_000, sidecar, io.Discard)
	st, err := s.Open(src, "sort.s")
	if err != nil {
		t.Fatal(err)
	}
	if h := s.Manifest.Inputs[0].SHA256; h != "" {
		t.Fatalf("Open hashed its input before any manifest was emitted: %s", h)
	}
	c, err := s.Machine(st.Image)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunFunctional(c, "sort.s"); err != nil {
		t.Fatal(err)
	}
	s.EndStage(StageRun)
	if p := s.Manifest.Provenance(); p.Timings != nil {
		t.Fatalf("embedded manifest carries timings %+v", p.Timings)
	}
	s.Finish()

	var m struct {
		Inputs  []struct{ SHA256 string }
		Timings struct {
			Stages []struct {
				Name string
				Ms   float64
			}
		}
	}
	raw, err := os.ReadFile(sidecar)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	want := New("test", 16, 0, "", io.Discard).Manifest
	want.AddInput("sort.s", data)
	want.Digest()
	if len(m.Inputs) != 1 || m.Inputs[0].SHA256 != want.Inputs[0].SHA256 {
		t.Fatalf("sidecar inputs %+v, want the digest %s", m.Inputs, want.Inputs[0].SHA256)
	}
	var names []string
	for _, st := range m.Timings.Stages {
		if st.Ms < 0 {
			t.Errorf("stage %s took %v ms", st.Name, st.Ms)
		}
		names = append(names, st.Name)
	}
	if got := fmt.Sprint(names); got != "[read load run write]" {
		t.Fatalf("stages %s, want [read load run write]", got)
	}
}
