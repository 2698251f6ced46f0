package telemetry

import (
	"bytes"
	"testing"

	"repro/internal/cpu"
	"repro/internal/profile"
	"repro/internal/program"
)

// This file is the emitter-determinism battery: every machine-readable
// writer in the package (report JSON/CSV, Chrome trace, folded
// flamegraph, heatmap CSV) must produce byte-identical output when
// emitted twice from the same run AND across two identical fresh runs.
// Map-iteration order leaking into an emitter is exactly the class of
// bug this catches — output files are diffed across CI runs and any
// nondeterminism shows up as phantom changes.

// collectOnce runs the shared test image with a fresh collector and
// recorder attached.
func collectOnce(t *testing.T, im *program.Image) (*cpu.CPU, *Collector, *profile.Profile) {
	t.Helper()
	col := New()
	col.MaxEvents = DefaultMaxEvents
	rec := profile.NewRecorder(im)
	c := runCollected(t, im, col, rec.Attach)
	return c, col, rec.Profile()
}

// emitAll renders every emitter into byte slices keyed by name.
func emitAll(t *testing.T, im *program.Image, c *cpu.CPU, col *Collector, prof *profile.Profile) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	emit := func(name string, fn func(*bytes.Buffer) error) {
		var buf bytes.Buffer
		if err := fn(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = buf.Bytes()
	}
	rep := NewReport(c, col)
	emit("report.json", func(b *bytes.Buffer) error { return rep.WriteJSON(b) })
	emit("report.csv", func(b *bytes.Buffer) error { return rep.WriteCSV(b) })
	emit("trace.json", func(b *bytes.Buffer) error { return col.WriteChromeTrace(b, im) })
	emit("profile.folded", func(b *bytes.Buffer) error { return WriteFolded(b, prof) })
	emit("heatmap.csv", func(b *bytes.Buffer) error { return WriteHeatmapCSV(b, col.IC, col.DC) })
	return out
}

// TestEmittersByteIdentical is the repeated-emit check on both axes:
// same state emitted twice, and two identical runs emitted once each.
func TestEmittersByteIdentical(t *testing.T) {
	im := buildCompressed(t)

	c1, col1, prof1 := collectOnce(t, im)
	first := emitAll(t, im, c1, col1, prof1)
	again := emitAll(t, im, c1, col1, prof1)
	for name, want := range first {
		if !bytes.Equal(again[name], want) {
			t.Errorf("%s: re-emitting from the same run changed the bytes", name)
		}
		if len(want) == 0 {
			t.Errorf("%s: emitter produced no output; the identity check is vacuous", name)
		}
	}

	c2, col2, prof2 := collectOnce(t, im)
	second := emitAll(t, im, c2, col2, prof2)
	for name, want := range first {
		if !bytes.Equal(second[name], want) {
			t.Errorf("%s: two identical runs emitted different bytes (nondeterministic emitter or simulation)", name)
		}
	}
}
