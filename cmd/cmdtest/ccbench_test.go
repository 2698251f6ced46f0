package cmdtest

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var (
	ccbenchGoldenDir = filepath.Join("..", "..", "testdata", "ccbench-golden")
	benchCI          = filepath.Join("..", "..", "BENCH_ci.json")
)

// ccbench runs the built ccbench with args and returns its stdout,
// failing the test on a non-zero exit.
func ccbench(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, "ccbench"), args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("ccbench %v: %v\n%s", args, err, stderr.String())
	}
	return stdout.Bytes()
}

// TestCCBenchCompareGolden pins the stdout of `ccbench compare` and
// `ccbench compare -v` on the committed BENCH_ci.json: a comparison of
// simulated metrics only, so it is the same on every host. Re-record
// only for a deliberate change of the table:
//
//	go test ./cmd/cmdtest -run TestCCBenchCompareGolden -update
func TestCCBenchCompareGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"compare.txt", []string{"compare", benchCI}},
		{"compare-v.txt", []string{"compare", "-v", benchCI}},
	} {
		got := ccbench(t, tc.args...)
		path := filepath.Join(ccbenchGoldenDir, tc.golden)
		if *updateGoldens {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden (record with -update): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("ccbench %v:\n%s\nwant (%s):\n%s", tc.args, got, tc.golden, want)
		}
	}
}

// TestCCBenchRunKeepsLabel appends to a copy of BENCH_ci.json without
// -host: the file keeps its "ci" label and gains one entry. With -host
// the label is replaced.
func TestCCBenchRunKeepsLabel(t *testing.T) {
	data, err := os.ReadFile(benchCI)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_copy.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	label := func() (string, int) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var traj struct {
			Host    string            `json:"host"`
			Entries []json.RawMessage `json:"entries"`
		}
		if err := json.Unmarshal(data, &traj); err != nil {
			t.Fatal(err)
		}
		return traj.Host, len(traj.Entries)
	}
	_, before := label()

	ccbench(t, "run", "-scale", "0.02", "-only", "go/native/16K", "-o", path)
	if host, n := label(); host != "ci" || n != before+1 {
		t.Errorf("after run without -host: label %q with %d entries, want \"ci\" with %d", host, n, before+1)
	}
	ccbench(t, "run", "-scale", "0.02", "-only", "go/native/16K", "-host", "relabelled", "-o", path)
	if host, n := label(); host != "relabelled" || n != before+2 {
		t.Errorf("after run -host relabelled: label %q with %d entries, want \"relabelled\" with %d", host, n, before+2)
	}
}
