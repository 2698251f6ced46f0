package obs

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"

	_ "repro/internal/codec/all"
)

func TestManifestRoundTrip(t *testing.T) {
	m := New("obstest")
	m.SetConfig("scheme", "dict")
	m.AddInput("input.bin", []byte("payload"))
	m.Finish(time.Now().Add(-time.Second))
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Timings == nil || m.Timings.WallMs < 1000 {
		t.Fatalf("Finish recorded %+v; want >= 1s of wall time", m.Timings)
	}

	out := PathFor(filepath.Join(t.TempDir(), "artifact.json"))
	if !strings.HasSuffix(out, "artifact.json.manifest.json") {
		t.Fatalf("PathFor = %q", out)
	}
	if err := m.Write(out); err != nil {
		t.Fatal(err)
	}
	got, err := Load(out)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tool != "obstest" || got.Config["scheme"] != "dict" {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	if len(got.Inputs) != 1 || got.Inputs[0].Bytes != int64(len("payload")) {
		t.Fatalf("round trip lost inputs: %+v", got.Inputs)
	}
}

// TestManifestProvenance: the embedded form is a deep copy with timings
// stripped — mutating it must not leak back, and marshalling it twice
// must be byte-identical (the report emitters rely on this).
func TestManifestProvenance(t *testing.T) {
	m := New("obstest")
	m.SetConfig("k", "v")
	m.AddInput("blob", []byte("data"))
	m.Finish(time.Now())

	p := m.Provenance()
	if p.Timings != nil {
		t.Fatal("provenance copy kept timings")
	}
	if m.Timings == nil {
		t.Fatal("Provenance stripped timings from the original")
	}
	p.Config["k"] = "mutated"
	p.Inputs[0].Name = "mutated"
	if m.Config["k"] != "v" || m.Inputs[0].Name != "blob" {
		t.Fatal("mutating the provenance copy leaked into the original")
	}
	a, err := json.Marshal(m.Provenance())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(m.Provenance())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("provenance marshalling is not byte-deterministic")
	}
}

func TestManifestValidateRejects(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(m *Manifest)
	}{
		{"schema", func(m *Manifest) { m.SchemaVersion = 99 }},
		{"tool", func(m *Manifest) { m.Tool = "" }},
		{"toolchain", func(m *Manifest) { m.GoVersion = "" }},
		{"no-codecs", func(m *Manifest) { m.Codecs = nil }},
		{"unsorted-codecs", func(m *Manifest) { m.Codecs[0], m.Codecs[1] = m.Codecs[1], m.Codecs[0] }},
		{"bad-hash", func(m *Manifest) { m.Inputs[0].SHA256 = "deadbeef" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := New("obstest")
			m.AddInput("blob", []byte("data"))
			if len(m.Codecs) < 2 {
				t.Fatalf("registry too small to test: %v", m.Codecs)
			}
			if err := m.Validate(); err != nil {
				t.Fatalf("clean manifest rejected: %v", err)
			}
			tc.corrupt(m)
			if err := m.Validate(); err == nil {
				t.Error("Validate accepted a corrupted manifest")
			}
		})
	}
}

// TestReporterHeartbeat: on a non-TTY writer the reporter emits
// structured progress records (rate-limited) and a final done summary.
func TestReporterHeartbeat(t *testing.T) {
	var buf bytes.Buffer
	r := NewReporter("test-campaign", &buf, NewLogger("obstest", &buf))
	for i := 1; i <= 3; i++ {
		r.Step(i, 3, "shard")
	}
	r.Done()
	out := buf.String()
	if !strings.Contains(out, "msg=progress") {
		t.Errorf("no progress record in output:\n%s", out)
	}
	if !strings.Contains(out, "msg=done") || !strings.Contains(out, "done=3 total=3") {
		t.Errorf("no final summary in output:\n%s", out)
	}
	// The 5s non-TTY rate limit must have coalesced the middle steps:
	// one initial render plus the final, nothing per-step.
	if n := strings.Count(out, "msg=progress"); n > 1 {
		t.Errorf("%d progress renders for 3 rapid steps; rate limit not applied", n)
	}
}

// TestReporterSilentWithoutStep: a reporter that never saw work emits
// nothing, so short runs add no log noise.
func TestReporterSilentWithoutStep(t *testing.T) {
	var buf bytes.Buffer
	r := NewReporter("idle", &buf, NewLogger("obstest", &buf))
	r.Done()
	r.Done() // idempotent
	if buf.Len() != 0 {
		t.Errorf("idle reporter wrote output:\n%s", buf.String())
	}
}

func TestLoggerSchema(t *testing.T) {
	var buf bytes.Buffer
	log := NewLogger("mytool", &buf)
	log.Info("hello", "k", 1)
	if out := buf.String(); !strings.Contains(out, "tool=mytool") {
		t.Errorf("log record missing the shared tool attribute:\n%s", out)
	}

	t.Setenv("RTD_LOG", "json")
	buf.Reset()
	NewLogger("mytool", &buf).Info("hello")
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("RTD_LOG=json did not produce JSON: %v\n%s", err, buf.String())
	}
	if rec["tool"] != "mytool" || rec["msg"] != "hello" {
		t.Errorf("JSON record missing fields: %v", rec)
	}
}
