package rtd_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	rtd "repro"
	"repro/internal/synth"
)

// The counter golden. The equivalence battery pins only the functional
// user-instruction count; this test pins the rest of what the untimed
// engines report: FunctStats {Instrs, HandlerInstrs, Exceptions} of a
// functional run, and the whole SampleResult of a sampled run, for the
// corpus under every equivalence scheme and for the warm-fidelity
// workloads. The figures are a recording (testdata/counters.golden.json);
// a change to either engine that moves any of them fails here. Run
//
//	go test -run TestCounterGolden -update-counters .
//
// to re-record after a deliberate model change.

var updateCounters = flag.Bool("update-counters", false, "rewrite testdata/counters.golden.json")

const countersGolden = "testdata/counters.golden.json"

// functCounters is the FunctStats subset the golden pins.
type functCounters struct {
	Instrs        uint64 `json:"instrs"`
	HandlerInstrs uint64 `json:"handler_instrs"`
	Exceptions    uint64 `json:"exceptions"`
}

type counterRecord struct {
	Functional functCounters     `json:"functional"`
	Sampled    *rtd.SampleResult `json:"sampled"`
}

// counterCase is one image on one machine under one sampling schedule.
type counterCase struct {
	name    string
	im      *rtd.Image
	machine rtd.MachineConfig
	sample  rtd.SampleConfig
}

func counterCases(t *testing.T) []counterCase {
	t.Helper()
	var cases []counterCase
	paths, err := filepath.Glob("testdata/*.s")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus programs found: %v", err)
	}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		im, err := rtd.Assemble(string(raw))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, opts := range equivalenceSchemes {
			run := im
			if opts.Scheme != "" {
				res, err := rtd.Compress(im, opts)
				if err != nil {
					t.Fatalf("%s: %s: %v", path, schemeLabel(opts), err)
				}
				run = res.Image
			}
			// The corpus programs are short: a small schedule makes them
			// alternate windows, fast-forward and bursts, and a 1KB
			// I-cache makes the warmed lines evict.
			for _, kb := range []int{16, 1} {
				machine := rtd.DefaultMachine()
				machine.ICache.SizeBytes = kb * 1024
				machine.MaxInstr = 100_000_000
				cases = append(cases, counterCase{
					name:    fmt.Sprintf("%s/%s@%dKB", strings.TrimSuffix(filepath.Base(path), ".s"), schemeLabel(opts), kb),
					im:      run,
					machine: machine,
					sample:  rtd.SampleConfig{Window: 64, Interval: 256},
				})
			}
		}
	}
	// The warm-fidelity workloads, under the default schedule.
	for _, w := range []struct {
		bench string
		opts  rtd.Options
		kb    int
	}{
		{"pegwit", rtd.Options{Scheme: "lz", ShadowRF: true}, 4},
		{"go", rtd.Options{Scheme: rtd.SchemeDict}, 16},
		{"mpeg2enc", rtd.Options{Scheme: rtd.SchemeProcDict}, 16},
	} {
		p, ok := synth.ByName(w.bench)
		if !ok {
			t.Fatalf("unknown benchmark %q", w.bench)
		}
		im, err := synth.Build(p.Scale(0.1))
		if err != nil {
			t.Fatal(err)
		}
		res, err := rtd.Compress(im, w.opts)
		if err != nil {
			t.Fatal(err)
		}
		machine := rtd.DefaultMachine()
		machine.ICache.SizeBytes = w.kb * 1024
		cases = append(cases, counterCase{
			name:    fmt.Sprintf("%s/%s@%dKB", w.bench, schemeLabel(w.opts), w.kb),
			im:      res.Image,
			machine: machine,
			sample:  rtd.DefaultSampleConfig(),
		})
	}
	return cases
}

func TestCounterGolden(t *testing.T) {
	got := map[string]counterRecord{}
	for _, tc := range counterCases(t) {
		_, fs, err := rtd.FunctionalRun(tc.im, tc.machine)
		if err != nil {
			t.Fatalf("%s: functional: %v", tc.name, err)
		}
		sr, _, err := rtd.SampledRun(tc.im, tc.machine, tc.sample)
		if err != nil {
			t.Fatalf("%s: sampled: %v", tc.name, err)
		}
		got[tc.name] = counterRecord{
			Functional: functCounters{fs.Instrs, fs.HandlerInstrs, fs.Exceptions},
			Sampled:    sr,
		}
	}
	enc, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	enc = append(enc, '\n')
	if *updateCounters {
		if err := os.WriteFile(countersGolden, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(countersGolden)
	if err != nil {
		t.Fatalf("%v (re-record with -update-counters)", err)
	}
	var want map[string]json.RawMessage
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d cases, the test runs %d", len(want), len(got))
	}
	for name, rec := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: not in the golden", name)
			continue
		}
		g, _ := json.Marshal(rec)
		var wantRec counterRecord
		if err := json.Unmarshal(w, &wantRec); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ws, _ := json.Marshal(wantRec); string(g) != string(ws) {
			t.Errorf("%s: counters moved\n got: %s\nwant: %s", name, g, ws)
		}
	}
}
