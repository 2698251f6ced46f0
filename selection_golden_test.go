package rtd_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/placement"
	"repro/internal/profile"
	"repro/internal/program"
	"repro/internal/selective"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// The selection golden. Selective compression, Pettis–Hansen placement
// and the folded-stack exporter all read one per-procedure profile of a
// run: user instructions and I-cache misses per procedure, and the
// dynamic call edges between procedures. This test pins that profile,
// and everything derived from it, for the eight benchmark stand-ins at
// a small scale and for every testdata/*.s program:
//
//   - the per-procedure exec and miss counts and the call edges, of the
//     native run at 16KB and 1KB and of the dictionary+RF run at 16KB;
//   - Select under every policy at every Thresholds value, the
//     Pettis–Hansen order and the folded-stack bytes, from the native
//     16KB run; and the folded-stack bytes of the compressed run.
//
// The figures are a recording (testdata/selection.golden.json). Run
//
//	go test -run TestSelectionGolden -update-selection .
//
// to re-record after a deliberate model change.

var updateSelection = flag.Bool("update-selection", false, "rewrite testdata/selection.golden.json")

const selectionGolden = "testdata/selection.golden.json"

// procCounts is one procedure's exec and miss counts; procedures with
// neither are left out.
type procCounts struct {
	Name   string `json:"name"`
	Execs  uint64 `json:"execs"`
	Misses uint64 `json:"misses"`
}

// callEdge is one caller→callee pair with its dynamic call count.
type callEdge struct {
	From  string `json:"from"`
	To    string `json:"to"`
	Count uint64 `json:"count"`
}

// runRecord is the profile of one run.
type runRecord struct {
	Procs  []procCounts `json:"procs"`
	Calls  []callEdge   `json:"calls"`
	Folded string       `json:"folded"` // sha256 and line count, or the exporter's error
}

// selectionRecord is one program's golden.
type selectionRecord struct {
	Native   runRecord           `json:"native_16k"`
	Small    runRecord           `json:"native_1k"`
	Dict     runRecord           `json:"dict_rf_16k"`
	Select   map[string][]string `json:"select"` // "policy/threshold" -> sorted names
	Order    []string            `json:"order"`
	NumProcs int                 `json:"num_procs"`
}

// selectionPrograms returns the programs the golden covers, by name.
func selectionPrograms(t *testing.T) map[string]*program.Image {
	t.Helper()
	ims := make(map[string]*program.Image)
	for _, p := range synth.Benchmarks() {
		im, err := synth.Build(p.Scale(0.25))
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		ims[p.Name] = im
	}
	paths, err := filepath.Glob("testdata/*.s")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus programs found: %v", err)
	}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		im, err := asm.Assemble(string(raw))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		ims[filepath.Base(path)] = im
	}
	return ims
}

// profiledRun runs im to completion at cacheKB with a recorder attached.
func profiledRun(t *testing.T, im *program.Image, cacheKB int) *profile.Profile {
	t.Helper()
	cfg := cpu.DefaultConfig()
	cfg.ICache.SizeBytes = cacheKB * 1024
	cfg.MaxInstr = 2_000_000_000
	c, err := cpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := profile.NewRecorder(im)
	rec.Attach(c)
	var out bytes.Buffer
	c.Out = &out
	if err := c.Load(im); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Verify(); err != nil {
		t.Fatal(err)
	}
	return rec.Profile()
}

// recordRun digests one run's profile: exec counts are user
// instructions, miss counts native fills plus decompression misses.
func recordRun(prof *profile.Profile) runRecord {
	r := runRecord{Procs: []procCounts{}, Calls: []callEdge{}}
	for _, p := range prof.Procs {
		misses := p.IMissNative + p.IMissCompressed
		if p.Name != profile.OutsideName && (p.Instrs != 0 || misses != 0) {
			r.Procs = append(r.Procs, procCounts{p.Name, p.Instrs, misses})
		}
	}
	for k, n := range prof.Calls {
		r.Calls = append(r.Calls, callEdge{prof.Procs[k[0]].Name, prof.Procs[k[1]].Name, n})
	}
	sort.Slice(r.Calls, func(i, j int) bool {
		a, b := r.Calls[i], r.Calls[j]
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
	var buf bytes.Buffer
	if err := telemetry.WriteFolded(&buf, prof); err != nil {
		r.Folded = "error: " + err.Error()
	} else {
		r.Folded = fmt.Sprintf("sha256:%x lines:%d", sha256.Sum256(buf.Bytes()), bytes.Count(buf.Bytes(), []byte("\n")))
	}
	return r
}

func sortedSelection(sel map[string]bool) []string {
	names := []string{}
	for n := range sel {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func recordSelection(t *testing.T, im *program.Image) selectionRecord {
	t.Helper()
	prof := profiledRun(t, im, 16)
	small := profiledRun(t, im, 1)
	res, err := core.Compress(im, core.Options{Scheme: program.SchemeDict, ShadowRF: true})
	if err != nil {
		t.Fatal(err)
	}
	dict := profiledRun(t, res.Image, 16)
	rec := selectionRecord{
		Native:   recordRun(prof),
		Small:    recordRun(small),
		Dict:     recordRun(dict),
		Select:   make(map[string][]string),
		Order:    placement.Order(prof),
		NumProcs: len(im.Procs),
	}
	for _, th := range selective.Thresholds {
		for _, policy := range []selective.Policy{selective.ByExecution, selective.ByMisses, selective.ByCost} {
			rec.Select[fmt.Sprintf("%v/%g", policy, th)] = sortedSelection(selective.Select(prof, policy, th))
		}
	}
	return rec
}

// TestSelectionGolden pins the per-procedure profile and the selections,
// orders and folded stacks derived from it.
func TestSelectionGolden(t *testing.T) {
	got := make(map[string]selectionRecord)
	for name, im := range selectionPrograms(t) {
		got[name] = recordSelection(t, im)
	}
	if *updateSelection {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(selectionGolden, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(selectionGolden)
	if err != nil {
		t.Fatalf("%v (record it with -update-selection)", err)
	}
	var want map[string]selectionRecord
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	var names []string
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(got) != len(want) {
		t.Errorf("golden covers %d programs, the test ran %d", len(want), len(got))
	}
	for _, name := range names {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: in the golden, not run", name)
			continue
		}
		w := want[name]
		for _, part := range []struct {
			what      string
			got, want any
		}{
			{"native 16KB profile", g.Native, w.Native},
			{"native 1KB profile", g.Small, w.Small},
			{"dict+RF 16KB profile", g.Dict, w.Dict},
			{"selections", g.Select, w.Select},
			{"placement order", g.Order, w.Order},
			{"procedure count", g.NumProcs, w.NumProcs},
		} {
			if !reflect.DeepEqual(part.got, part.want) {
				t.Errorf("%s: %s differs from %s:\n got %s\nwant %s", name, part.what, selectionGolden,
					clip(part.got), clip(part.want))
			}
		}
	}
}

// clip renders v as JSON, shortened for a failure message.
func clip(v any) string {
	b, _ := json.Marshal(v)
	s := string(b)
	if len(s) > 400 {
		s = s[:400] + "…"
	}
	return strings.TrimSpace(s)
}
