package cmdtest

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

var updateGoldens = flag.Bool("update", false, "re-record testdata/ccprof-golden")

var goldenDir = filepath.Join("..", "..", "testdata", "ccprof-golden")

// observedCase is one ccprof run the observed-artifact goldens pin.
type observedCase struct {
	target string // a synthetic benchmark name, or "hotbase"
	scheme string // native, dict-rf, codepack, procdict
	window int
}

var goldenSchemes = map[string][]string{
	"native":   nil,
	"dict-rf":  {"-scheme", "dict", "-rf"},
	"codepack": {"-scheme", "codepack"},
	"procdict": {"-scheme", "procdict"},
}

func observedCases() []observedCase {
	var cs []observedCase
	for _, target := range []string{"go", "cc1", "pegwit", "hotbase"} {
		for _, scheme := range []string{"native", "dict-rf", "codepack", "procdict"} {
			for _, w := range []int{1, 7, 8192} {
				cs = append(cs, observedCase{target, scheme, w})
			}
		}
	}
	return cs
}

func (c observedCase) name() string { return fmt.Sprintf("%s-%s-w%d", c.target, c.scheme, c.window) }

// timelines reports whether the case records its -timeline exports. A
// compressed synthetic run at one commit per window writes tens of
// megabytes per timeline, so window 1 keeps them for the native runs
// and hotbase only.
func (c observedCase) timelines() bool {
	return c.window != 1 || c.scheme == "native" || c.target == "hotbase"
}

func (c observedCase) args() []string {
	var a []string
	if c.target == "hotbase" {
		a = append(a, goldenSchemes[c.scheme]...)
		a = append(a, "-window", fmt.Sprint(c.window))
		return a
	}
	a = append(a, "-bench", c.target, "-scale", "0.01")
	a = append(a, goldenSchemes[c.scheme]...)
	return append(a, "-window", fmt.Sprint(c.window))
}

// artifacts runs ccprof twice on the case (one -profile and one
// -timeline path per run) and returns each artifact's bytes by kind,
// with the embedded manifest cut out: it names the command line and
// the toolchain, not the run.
func (c observedCase) artifacts(t *testing.T) map[string][]byte {
	dir := t.TempDir()
	path := func(kind string) string { return filepath.Join(dir, kind) }
	runs := [][]string{
		{"-format", "json", "-o", path("report.json"), "-profile", path("profile.json")},
		{"-format", "json", "-o", path("report2.json"), "-profile", path("profile.csv")},
	}
	kinds := []string{"report.json", "profile.json", "profile.csv"}
	if c.timelines() {
		runs[0] = append(runs[0], "-timeline", path("timeline.csv"))
		runs[1] = append(runs[1], "-timeline", path("timeline.json"))
		kinds = append(kinds, "timeline.csv", "timeline.json")
	}
	for _, extra := range runs {
		args := append(c.args(), extra...)
		if c.target == "hotbase" {
			args = append(args, filepath.Join("..", "..", "testdata", "profile", "hotbase.s"))
		}
		cmd := exec.Command(filepath.Join(binDir, "ccprof"), args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("ccprof %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
		}
	}
	out := map[string][]byte{}
	for _, kind := range kinds {
		data, err := os.ReadFile(path(kind))
		if err != nil {
			t.Fatal(err)
		}
		out[kind] = stripManifest(data)
	}
	return out
}

// stripManifest cuts the top-level "manifest" member out of an indented
// JSON document, keeping the rest byte for byte; other data passes
// through unchanged.
func stripManifest(data []byte) []byte {
	start := bytes.Index(data, []byte(",\n  \"manifest\": {"))
	if start < 0 {
		return data
	}
	end := bytes.Index(data[start:], []byte("\n  }"))
	if end < 0 {
		return data
	}
	end += start + len("\n  }")
	return append(data[:start:start], data[end:]...)
}

func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TestObservedGoldens pins ccprof's observed artifacts byte for byte:
// the profile JSON and CSV, the -format json report and the -timeline
// CSV and JSON of go, cc1 and pegwit at -scale 0.01 and of
// testdata/profile/hotbase.s (where a cache line crosses a procedure
// boundary), each native, dict+RF, codepack and procdict, at -window 1,
// 7 and 8192. testdata/ccprof-golden/SHA256SUMS holds every artifact's
// digest (sha256sum format); each target and scheme's profile JSON is
// also kept whole, gzipped, so a mismatch names the first line that
// moved. Re-record only for a deliberate change of an artifact:
//
//	go test ./cmd/cmdtest -run TestObservedGoldens -update
func TestObservedGoldens(t *testing.T) {
	want := map[string]string{}
	if !*updateGoldens {
		f, err := os.Open(filepath.Join(goldenDir, "SHA256SUMS"))
		if err != nil {
			t.Fatalf("missing goldens (record with -update): %v", err)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			sum, name, ok := strings.Cut(sc.Text(), "  ")
			if !ok {
				t.Fatalf("SHA256SUMS: malformed line %q", sc.Text())
			}
			want[name] = sum
		}
		f.Close()
	}
	var mu sync.Mutex
	got := map[string]string{}
	t.Run("cases", func(t *testing.T) {
		for _, c := range observedCases() {
			t.Run(c.name(), func(t *testing.T) {
				t.Parallel()
				arts := c.artifacts(t)
				if *updateGoldens {
					mu.Lock()
					defer mu.Unlock()
					for kind, data := range arts {
						got[c.name()+"."+kind] = digest(data)
					}
					if c.window == 8192 {
						writeGzip(t, filepath.Join(goldenDir, c.target+"-"+c.scheme+".profile.json.gz"), arts["profile.json"])
					}
					return
				}
				for kind, data := range arts {
					name := c.name() + "." + kind
					if w, ok := want[name]; !ok {
						t.Errorf("%s: no recorded digest", name)
					} else if d := digest(data); d != w {
						t.Errorf("%s: digest %s, recorded %s%s", name, d, w, firstDiff(c, kind, data))
					}
				}
			})
		}
	})
	if !*updateGoldens {
		return
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s  %s\n", got[name], name)
	}
	if err := os.WriteFile(filepath.Join(goldenDir, "SHA256SUMS"), []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// firstDiff locates the first line where a profile JSON departs from
// the gzipped copy recorded for its target and scheme.
func firstDiff(c observedCase, kind string, data []byte) string {
	if kind != "profile.json" {
		return ""
	}
	rec, err := readGzip(filepath.Join(goldenDir, c.target+"-"+c.scheme+".profile.json.gz"))
	if err != nil {
		return fmt.Sprintf(" (%v)", err)
	}
	g, w := strings.Split(string(data), "\n"), strings.Split(string(rec), "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			return fmt.Sprintf("\nline %d: got %q, recorded %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("\n%d lines, recorded %d", len(g), len(w))
}

func readGzip(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, err
	}
	return io.ReadAll(zr)
}

func writeGzip(t *testing.T, path string, data []byte) {
	var buf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&buf, gzip.BestCompression)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}
