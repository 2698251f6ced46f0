package profile

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// encodingJSON is the rendering WriteJSON must reproduce byte for byte:
// encoding/json with a two-space indent.
func encodingJSON(t testing.TB, p *Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func streamed(t testing.TB, p *Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// goldenProfiles reads the recorded observed-artifact profiles
// (testdata/ccprof-golden), by file name.
func goldenProfiles(t testing.TB) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "ccprof-golden", "*.profile.json.gz"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden profiles (%v)", err)
	}
	out := map[string][]byte{}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		zr, err := gzip.NewReader(f)
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(zr)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(path)] = data
	}
	return out
}

// TestWriteJSONMatchesEncodingJSON holds the streamed writer to the
// encoding/json rendering on every recorded golden profile and on the
// shapes the goldens do not reach: empty and null record lists, the
// outside-table bucket, no identity or manifest, an embedded manifest,
// names that need escaping and counters at their maximum.
func TestWriteJSONMatchesEncodingJSON(t *testing.T) {
	cases := map[string]*Profile{}
	var base *Profile
	for name, data := range goldenProfiles(t) {
		p, err := Read(bytes.NewReader(data), name)
		if err != nil {
			t.Fatal(err)
		}
		if got := streamed(t, p); !bytes.Equal(got, data) {
			t.Errorf("%s: re-encoding the recorded artifact changes its bytes", name)
		}
		cases[name] = p
		if base == nil || len(p.Lines) < len(base.Lines) {
			base = p
		}
	}
	edit := func(name string, fn func(p *Profile)) {
		p := *base
		p.Lines = append([]LineCost(nil), base.Lines...)
		p.Procs = append([]ProcCost(nil), base.Procs...)
		fn(&p)
		cases[name] = &p
	}
	edit("empty-lines", func(p *Profile) { p.Lines = []LineCost{} })
	edit("null-lines", func(p *Profile) { p.Lines = nil })
	edit("no-records", func(p *Profile) { p.Lines, p.Procs = []LineCost{}, nil })
	edit("outside-bucket", func(p *Profile) {
		p.Procs = append(p.Procs, ProcCost{Name: OutsideName, Cost: Cost{Cycles: 3, Instrs: 2, CPIStack: [7]uint64{2, 1}}})
	})
	edit("no-identity", func(p *Profile) { p.Image, p.Scheme, p.Manifest = "", "", nil })
	edit("identity-and-manifest", func(p *Profile) {
		m := obs.New("ccprof")
		m.SetConfig("scheme", "dict")
		m.SetConfig("window", "8192")
		m.AddInput("prog<1>&.img", []byte("image bytes"))
		p.SetIdentity("go", "dict")
		p.SetManifest(m)
	})
	edit("escaped-names", func(p *Profile) {
		p.Image = "a\"b\\c\n\t<x>&\u2028\u2029\xff\x01"
		p.Procs = append(p.Procs, ProcCost{Name: "é\u007f\x1f", Addr: 4})
	})
	edit("max-counters", func(p *Profile) {
		var c Cost
		c.Cycles, c.Instrs, c.HandlerInstrs = math.MaxUint64, math.MaxUint64, math.MaxUint64
		c.IMissNative, c.IMissCompressed, c.Exceptions = math.MaxUint64, math.MaxUint64, math.MaxUint64
		c.FetchStalls, c.LoadStalls, c.LoadUseStalls = math.MaxUint64, math.MaxUint64, math.MaxUint64
		c.ExcCyclesTotal, c.ExcCyclesMax = math.MaxUint64, math.MaxUint64
		c.BusReads, c.BusBytes = math.MaxUint64, math.MaxUint64
		for k := range c.CPIStack {
			c.CPIStack[k] = math.MaxUint64
		}
		p.Total = c
		p.Lines = []LineCost{{Addr: math.MaxUint32, Cost: c}}
		p.Procs = []ProcCost{{Name: "top", Addr: math.MaxUint32, Cost: c}}
		p.SchemaVersion, p.LineBytes = math.MaxInt, math.MinInt
	})
	for name, p := range cases {
		if got, want := streamed(t, p), encodingJSON(t, p); !bytes.Equal(got, want) {
			t.Errorf("%s: streamed writer differs from encoding/json at byte %d:\n%s\nvs\n%s",
				name, firstByteDiff(got, want), excerpt(got, want), excerpt(want, got))
		}
	}
}

func firstByteDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// excerpt is a's neighbourhood of its first difference from b.
func excerpt(a, b []byte) []byte {
	i := firstByteDiff(a, b)
	return a[max(0, i-80):min(len(a), i+80)]
}

// FuzzProfileWrite holds the two writers together on everything the
// loader accepts: any artifact Read takes re-encodes to the same bytes
// through WriteJSON as through encoding/json. The seeds are small
// hand-written artifacts: the engine minimizes each input that finds
// new coverage, and a recorded profile's kilobytes make that outlast a
// smoke run (TestWriteJSONMatchesEncodingJSON covers the recorded ones).
func FuzzProfileWrite(f *testing.F) {
	f.Add([]byte(`{"schema_version": 1, "line_bytes": 32, "total": {}, "lines": [], "procs": []}`))
	f.Add([]byte(`{"schema_version": 1, "line_bytes": 32, "total": {}, "lines": null, "procs": null}`))
	f.Add([]byte(`{"schema_version": 1, "image": "<a>&", "scheme": "dict", "line_bytes": 32,
		"total": {"cycles": 5, "instrs": 3, "exc_cycles_max": 2, "cpi_stack": [3, 2], "bus_bytes": 18446744073709551615},
		"lines": [{"addr": 64, "cycles": 5, "instrs": 3, "exc_cycles_max": 2, "cpi_stack": [3, 2], "bus_bytes": 18446744073709551615}],
		"procs": [{"name": "main\u2028", "addr": 64, "cycles": 4, "instrs": 2, "cpi_stack": [2, 2], "bus_bytes": 18446744073709551615},
			{"name": "(outside)", "addr": 0, "cycles": 1, "instrs": 1, "exc_cycles_max": 2, "cpi_stack": [1]}],
		"manifest": {"schema_version": 1, "tool": "ccprof", "codecs": [{"name": "dict", "describe": "d"}], "config": {"window": "7"}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Read(bytes.NewReader(data), "fuzz")
		if err != nil {
			return
		}
		if got, want := streamed(t, p), encodingJSON(t, p); !bytes.Equal(got, want) {
			t.Fatalf("writers differ at byte %d:\n%s\nvs\n%s", firstByteDiff(got, want), excerpt(got, want), excerpt(want, got))
		}
	})
}
