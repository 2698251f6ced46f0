package perfwatch

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/profile"
)

// testScale keeps the measured runs small; the registry workloads are
// exercised one at a time.
const testScale = 0.02

// TestRegistry locks the registry's shape: at least 8 workloads (the
// acceptance floor), unique stable names, every one resolvable by Find.
func TestRegistry(t *testing.T) {
	reg := Registry()
	if len(reg) < 8 {
		t.Fatalf("registry has %d workloads, need >= 8", len(reg))
	}
	seen := map[string]bool{}
	for _, w := range reg {
		if w.Name == "" || w.Bench == "" || w.CacheKB == 0 || w.Version == 0 {
			t.Errorf("workload %+v has empty identity fields", w)
		}
		if seen[w.Name] {
			t.Errorf("duplicate workload name %q", w.Name)
		}
		seen[w.Name] = true
		if got, ok := Find(w.Name); !ok || got.Name != w.Name {
			t.Errorf("Find(%q) failed", w.Name)
		}
	}
	if _, ok := Find("no/such/workload"); ok {
		t.Error("Find invented a workload")
	}
}

// runEntry measures the named workloads once.
func runEntry(t *testing.T, only ...string) Entry {
	t.Helper()
	r := NewRunner(testScale)
	fp := NewFingerprint(testScale)
	entry, err := r.Run(fp, only)
	if err != nil {
		t.Fatal(err)
	}
	return entry
}

// TestDeterminism runs the same workload in two fresh runners and
// demands bit-identical simulated metrics — the property the whole
// exact-comparison axis rests on. (Each RunWorkload additionally
// cross-checks its plain run against its profiled run.)
func TestDeterminism(t *testing.T) {
	a := runEntry(t, "go/dict/16K")
	b := runEntry(t, "go/dict/16K")
	sa, _ := a.Sample("go/dict/16K")
	sb, _ := b.Sample("go/dict/16K")
	if diffs := sa.Sim.Diff(sb.Sim); len(diffs) != 0 {
		t.Fatalf("back-to-back runs diverged:\n%s", strings.Join(diffs, "\n"))
	}
	if sa.Sim.Cycles == 0 || sa.Sim.Instrs == 0 {
		t.Fatal("degenerate sample (no cycles/instrs)")
	}
	if sa.Sim.Exceptions == 0 {
		t.Fatal("dict workload took no decompression exceptions; workload is vacuous")
	}
	// CPI stack must sum exactly to cycles even through the map form.
	var sum uint64
	for _, v := range sa.Sim.CPIStack {
		sum += v
	}
	if sum != sa.Sim.Cycles {
		t.Fatalf("CPI stack sums to %d, cycles %d", sum, sa.Sim.Cycles)
	}
	// The spatial axis: the profiled observer run filled Procs, its
	// per-procedure cycles decompose Sim.Cycles exactly, and back-to-back
	// runs attribute identically.
	if len(sa.Procs) == 0 {
		t.Fatal("sample carries no per-procedure attribution")
	}
	var procSum uint64
	for _, p := range sa.Procs {
		procSum += p.Cycles
	}
	if procSum != sa.Sim.Cycles {
		t.Fatalf("proc attribution sums to %d, sample has %d cycles", procSum, sa.Sim.Cycles)
	}
	if len(sa.Procs) != len(sb.Procs) {
		t.Fatalf("attribution diverged: %d vs %d procedures", len(sa.Procs), len(sb.Procs))
	}
	for i := range sa.Procs {
		if sa.Procs[i] != sb.Procs[i] {
			t.Fatalf("attribution diverged at %d: %+v vs %+v", i, sa.Procs[i], sb.Procs[i])
		}
	}
}

// TestTrajectoryRoundTrip is the golden round-trip: append two entries
// to a file, load it back, and compare — identical runs must report
// zero simulated deltas on every workload.
func TestTrajectoryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, FileName("unit"))

	e1 := runEntry(t, "go/native/16K", "pegwit/dict+rf/4K")
	e2 := runEntry(t, "go/native/16K", "pegwit/dict+rf/4K")

	traj, err := Load(path) // missing file -> fresh trajectory
	if err != nil {
		t.Fatal(err)
	}
	if err := traj.Append(path, e1, 0); err != nil {
		t.Fatal(err)
	}
	if err := traj.Append(path, e2, 0); err != nil {
		t.Fatal(err)
	}

	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.SchemaVersion != TrajectorySchema {
		t.Fatalf("schema version %d, want %d", loaded.SchemaVersion, TrajectorySchema)
	}
	if loaded.Host != "unit" {
		t.Fatalf("host %q, want unit", loaded.Host)
	}
	if len(loaded.Entries) != 2 {
		t.Fatalf("%d entries, want 2", len(loaded.Entries))
	}

	c := CompareEntries(loaded.Entries[0], loaded.Entries[1])
	if len(c.Deltas) != 2 {
		t.Fatalf("%d deltas, want 2", len(c.Deltas))
	}
	for _, d := range c.Deltas {
		if d.Status != StatusSame {
			t.Errorf("%s: status %s (note %q, diffs %v), want same", d.Workload, d.Status, d.Note, d.SimDiffs)
		}
		if d.CycleDelta != 0 {
			t.Errorf("%s: cycle delta %v on identical runs", d.Workload, d.CycleDelta)
		}
	}
	if c.SimChanged() {
		t.Error("identical runs reported a simulated change")
	}
}

// TestTrajectoryKeep checks the entry-retention cap.
func TestTrajectoryKeep(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_keep.json")
	traj := &Trajectory{SchemaVersion: TrajectorySchema, Host: "keep"}
	for i := 0; i < 5; i++ {
		if err := traj.Append(path, Entry{Time: string(rune('a' + i))}, 3); err != nil {
			t.Fatal(err)
		}
	}
	if len(traj.Entries) != 3 {
		t.Fatalf("kept %d entries, want 3", len(traj.Entries))
	}
	if traj.Entries[0].Time != "c" || traj.Entries[2].Time != "e" {
		t.Fatalf("wrong entries survived: %+v", traj.Entries)
	}
}

// TestTrajectorySchemaGuards: unknown/newer schema versions are
// rejected, not silently misread.
func TestTrajectorySchemaGuards(t *testing.T) {
	dir := t.TempDir()
	newer := filepath.Join(dir, "BENCH_newer.json")
	os.WriteFile(newer, []byte(`{"schema_version": 999, "host": "x", "entries": []}`), 0o644)
	if _, err := Load(newer); err == nil || !strings.Contains(err.Error(), "newer") {
		t.Fatalf("future schema accepted: %v", err)
	}
	unversioned := filepath.Join(dir, "BENCH_unversioned.json")
	os.WriteFile(unversioned, []byte(`{"host": "x"}`), 0o644)
	if _, err := Load(unversioned); err == nil || !strings.Contains(err.Error(), "schema_version") {
		t.Fatalf("unversioned file accepted: %v", err)
	}
	if _, err := Load(filepath.Join(dir, "BENCH_garbage.json")); err != nil {
		t.Fatalf("missing file should yield empty trajectory, got %v", err)
	}
}

// TestGateCatchesInjectedRegression is the gate self-test: a +5%
// simulated-cycle regression injected into an otherwise identical run
// must produce violations on every perturbed workload, and the clean
// comparison must pass.
func TestGateCatchesInjectedRegression(t *testing.T) {
	base := runEntry(t, "go/dict/16K", "go/native/16K")
	clean := runEntry(t, "go/dict/16K", "go/native/16K")

	policy := GatePolicy{}
	if vs := policy.Check(CompareEntries(base, clean)); len(vs) != 0 {
		t.Fatalf("clean run violated the gate: %+v", vs)
	}

	regressed := runEntry(t, "go/dict/16K", "go/native/16K")
	PerturbSim(&regressed, 1.05)
	vs := policy.Check(CompareEntries(base, regressed))
	if len(vs) != 2 {
		t.Fatalf("expected 2 violations (one per workload), got %+v", vs)
	}
	for _, v := range vs {
		if !strings.Contains(v.Reason, "simulated metrics changed") {
			t.Errorf("violation reason %q", v.Reason)
		}
		if !strings.Contains(v.Reason, "+5.0") {
			t.Errorf("violation should carry the +5%% delta: %q", v.Reason)
		}
		if !strings.Contains(v.Reason, "top regressing procedures: ") {
			t.Errorf("violation should name the regressing procedures: %q", v.Reason)
		}
	}
	// The explanation clause is deterministic: re-running the comparison
	// and gate must reproduce every reason byte for byte.
	again := policy.Check(CompareEntries(base, regressed))
	for i := range vs {
		if vs[i] != again[i] {
			t.Errorf("gate output not deterministic:\n  %+v\n  %+v", vs[i], again[i])
		}
	}

	// AllowSimChange waives the simulated gate (re-baselining PRs).
	if vs := (GatePolicy{AllowSimChange: true}).Check(CompareEntries(base, regressed)); len(vs) != 0 {
		t.Fatalf("AllowSimChange still violated: %+v", vs)
	}
}

// TestProcRegressionClause pins the gate's explanation clause with
// synthetic attribution: top-3 cap, positive-delta filter, name-sorted
// tie-breaking, and graceful omission when the baseline predates the
// attribution axis.
func TestProcRegressionClause(t *testing.T) {
	mk := func(cycles uint64, procs []profile.NamedCost) Entry {
		return Entry{
			Fingerprint: Fingerprint{Scale: 1},
			Samples: []Sample{{Workload: "w", Version: 1,
				Sim:   SimMetrics{Cycles: cycles, Instrs: 1, CPIStack: map[string]uint64{"user_execute": cycles}},
				Procs: procs}},
		}
	}
	old := mk(100, []profile.NamedCost{
		{Name: "hot", Cycles: 40}, {Name: "warm", Cycles: 30},
		{Name: "tie_b", Cycles: 10}, {Name: "tie_a", Cycles: 10}, {Name: "fell", Cycles: 10},
	})
	new := mk(190, []profile.NamedCost{
		{Name: "hot", Cycles: 90, DecompCycles: 25}, // +50 (decomp +25)
		{Name: "warm", Cycles: 30},                  // unchanged
		{Name: "tie_b", Cycles: 30},                 // +20, ties with tie_a
		{Name: "tie_a", Cycles: 30},                 // +20
		{Name: "fell", Cycles: 5},                   // improved: excluded
		{Name: "grew", Cycles: 35},                  // +35, absent in old
	})

	vs := GatePolicy{}.Check(CompareEntries(old, new))
	if len(vs) != 1 {
		t.Fatalf("expected 1 violation, got %+v", vs)
	}
	want := "top regressing procedures: hot +50 cycles (decomp +25), grew +35 cycles, tie_a +20 cycles"
	if !strings.Contains(vs[0].Reason, want) {
		t.Fatalf("reason %q\nwant clause %q", vs[0].Reason, want)
	}

	// A baseline without attribution (pre-attribution trajectory entry)
	// still gates on the totals, just without the clause.
	bare := old
	bare.Samples[0].Procs = nil
	vs = GatePolicy{}.Check(CompareEntries(bare, new))
	if len(vs) != 1 || strings.Contains(vs[0].Reason, "top regressing") {
		t.Fatalf("attribution-less baseline mishandled: %+v", vs)
	}
}

// TestCompareSkips covers the non-comparable paths: version bumps,
// added and removed workloads, scale mismatches.
func TestCompareSkips(t *testing.T) {
	mk := func(name string, version int, cycles uint64) Sample {
		return Sample{Workload: name, Version: version,
			Sim: SimMetrics{Cycles: cycles, Instrs: 1, CPIStack: map[string]uint64{"user_execute": cycles}}}
	}
	fp := Fingerprint{Scale: 0.1}
	old := Entry{Fingerprint: fp, Samples: []Sample{mk("a", 1, 100), mk("b", 1, 100), mk("gone", 1, 5)}}
	new := Entry{Fingerprint: fp, Samples: []Sample{mk("a", 2, 200), mk("b", 1, 100), mk("added", 1, 7)}}

	c := CompareEntries(old, new)
	byName := map[string]WorkloadDelta{}
	for _, d := range c.Deltas {
		byName[d.Workload] = d
	}
	if d := byName["a"]; d.Status != StatusSkipped || !strings.Contains(d.Note, "version") {
		t.Errorf("version bump: %+v", d)
	}
	if d := byName["b"]; d.Status != StatusSame {
		t.Errorf("unchanged: %+v", d)
	}
	if d := byName["gone"]; d.Status != StatusSkipped || !strings.Contains(d.Note, "removed") {
		t.Errorf("removed: %+v", d)
	}
	if d := byName["added"]; d.Status != StatusSkipped || !strings.Contains(d.Note, "baseline") {
		t.Errorf("added: %+v", d)
	}
	if (GatePolicy{}).Check(c) != nil {
		t.Error("skipped workloads must not violate the gate")
	}

	// A scale mismatch skips everything — different workloads entirely.
	newScale := new
	newScale.Fingerprint.Scale = 0.2
	for _, d := range CompareEntries(old, newScale).Deltas {
		if d.Status != StatusSkipped {
			t.Errorf("scale mismatch compared %s: %+v", d.Workload, d)
		}
	}
}

// TestTrajectoryWritesSimAxisOnly loads a trajectory in the format
// written before the host axis was retired — a host stanza per sample
// and host fields in the fingerprint — writes it back through
// Trajectory.Write, and requires neither in the output: the loader
// drops them and the writer has nothing to write them from.
func TestTrajectoryWritesSimAxisOnly(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, "BENCH_legacy.json")
	os.WriteFile(legacy, []byte(`{"schema_version": 1, "host": "ci", "entries": [{
	  "time": "2026-08-08T08:31:01Z",
	  "fingerprint": {"go_version": "go1.24.0", "goos": "linux", "goarch": "amd64",
	    "gomaxprocs": 1, "num_cpu": 1, "hostname": "vm", "scale": 0.1, "reps": 5,
	    "git_sha": "a026a5688f53", "codecs": ["dict"]},
	  "samples": [{"workload": "go/dict/16K", "version": 1,
	    "sim": {"cycles": 10, "instrs": 5, "cpi_stack": {"user_execute": 10}},
	    "host": {"wall_ns": [1, 2], "allocs": [3, 4], "bytes": [5, 6],
	      "median_ns": 1, "iqr_ns": 1, "ns_per_instr": 0.1}}]}]}`), 0o644)
	traj, err := Load(legacy)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "BENCH_w.json")
	if err := traj.Write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Entries []struct {
			Fingerprint map[string]json.RawMessage   `json:"fingerprint"`
			Samples     []map[string]json.RawMessage `json:"samples"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Entries) != 1 || len(doc.Entries[0].Samples) != 1 {
		t.Fatalf("written trajectory lost its entry: %s", data)
	}
	e := doc.Entries[0]
	for key := range e.Fingerprint {
		switch key {
		case "scale", "git_sha", "codecs":
		default:
			t.Errorf("fingerprint carries %q", key)
		}
	}
	if _, ok := e.Samples[0]["host"]; ok {
		t.Errorf("sample carries a host stanza: %s", data)
	}
	if !strings.Contains(string(data), `"cycles": 10`) {
		t.Errorf("simulated axis lost: %s", data)
	}
}

// TestShippedBaselineSelfCompare compares the committed baseline's
// latest entry with itself: every workload is the same and the gate
// passes.
func TestShippedBaselineSelfCompare(t *testing.T) {
	traj, err := Load(filepath.Join("..", "..", "BENCH_ci.json"))
	if err != nil {
		t.Fatal(err)
	}
	e, ok := traj.Latest()
	if !ok {
		t.Fatal("BENCH_ci.json has no entries")
	}
	c := CompareEntries(e, e)
	if len(c.Deltas) != len(e.Samples) || len(c.Deltas) == 0 {
		t.Fatalf("%d deltas for %d samples", len(c.Deltas), len(e.Samples))
	}
	for _, d := range c.Deltas {
		if d.Status != StatusSame {
			t.Errorf("%s: status %s (note %q, diffs %v), want same", d.Workload, d.Status, d.Note, d.SimDiffs)
		}
	}
	if c.SimChanged() {
		t.Error("self-comparison reported a simulated change")
	}
	if vs := (GatePolicy{}).Check(c); len(vs) != 0 {
		t.Errorf("self-comparison violated the gate: %+v", vs)
	}
}
