// Package cmdtest is the CLI contract suite: every command under cmd/
// must report usage errors on stderr and exit 2 for unknown flags or
// malformed invocations, and exit 1 (with the available choices named)
// for unknown schemes — so scripts and CI can rely on the exit codes
// without parsing output.
package cmdtest

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/program"
)

var (
	binDir    string // built CLI binaries
	imgPath   string // a small assembled .img input
	ccImgPath string // imgPath compressed with the dictionary scheme
	srcPath   = filepath.Join("..", "..", "testdata", "sort.s")
)

// TestMain builds every cmd/* binary once into a temp dir and assembles
// a small image for the input-consuming cases.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "cmdtest")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	binDir = dir

	build := exec.Command("go", "build", "-o", dir, "./cmd/...")
	build.Dir = filepath.Join("..", "..")
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building CLIs: %v\n%s", err, out)
		os.Exit(1)
	}

	src, err := os.ReadFile(srcPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	im, err := asm.Assemble(string(src))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	imgPath = filepath.Join(dir, "sort.img")
	if err := program.SaveFile(imgPath, im); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	res, err := core.Compress(im, core.Options{Scheme: program.SchemeDict})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ccImgPath = filepath.Join(dir, "sort.cc.img")
	if err := program.SaveFile(ccImgPath, res.Image); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	os.Exit(m.Run())
}

// anyNonZero marks cases where the exact code is tool-internal (cccheck
// delegates to `go vet`, whose code varies) but success would be a bug.
const anyNonZero = -1

func TestCLIExitCodes(t *testing.T) {
	cases := []struct {
		name   string
		tool   string
		args   []string
		want   int
		stderr string // required substring of stderr
	}{
		// Unknown flags: the flag package prints the offending flag and
		// the usage block to stderr and exits 2, for every CLI.
		{"simrun/bogus-flag", "simrun", []string{"-bogusflag"}, 2, "flag provided but not defined"},
		{"ccprof/bogus-flag", "ccprof", []string{"-bogusflag"}, 2, "flag provided but not defined"},
		{"cccompress/bogus-flag", "cccompress", []string{"-bogusflag"}, 2, "flag provided but not defined"},
		{"ccasm/bogus-flag", "ccasm", []string{"-bogusflag"}, 2, "flag provided but not defined"},
		{"minicc/bogus-flag", "minicc", []string{"-bogusflag"}, 2, "flag provided but not defined"},
		{"ccverify/bogus-flag", "ccverify", []string{"-bogusflag"}, 2, "flag provided but not defined"},
		{"ccfuzz/bogus-flag", "ccfuzz", []string{"-bogusflag"}, 2, "flag provided but not defined"},
		{"experiments/bogus-flag", "experiments", []string{"-bogusflag"}, 2, "flag provided but not defined"},
		{"cclint/bogus-flag", "cclint", []string{"-bogusflag"}, 2, "flag provided but not defined"},
		{"ccbench/run-bogus-flag", "ccbench", []string{"run", "-bogusflag"}, 2, "flag provided but not defined"},
		{"cccheck/bogus-flag", "cccheck", []string{"-bogusflag"}, anyNonZero, ""},

		// Malformed invocations: usage to stderr, exit 2.
		{"simrun/no-args", "simrun", nil, 2, "Usage"},
		{"ccprof/no-args", "ccprof", nil, 2, "Usage"},
		{"cccompress/no-args", "cccompress", nil, 2, "Usage"},
		{"ccasm/no-args", "ccasm", nil, 2, "Usage"},
		{"minicc/no-args", "minicc", nil, 2, "Usage"},
		{"ccverify/one-arg", "ccverify", []string{"a.img"}, 2, "Usage"},
		{"experiments/no-work", "experiments", nil, 2, "Usage"},
		{"cclint/no-work", "cclint", nil, 2, "Usage"},
		{"ccbench/no-command", "ccbench", nil, 2, "usage"},
		{"ccbench/unknown-command", "ccbench", []string{"frobnicate"}, 2, "unknown command"},
		{"ccfuzz/positional-arg", "ccfuzz", []string{"stray"}, 2, "Usage"},
		{"ccfuzz/bad-shadow", "ccfuzz", []string{"-shadow", "sideways"}, 2, "-shadow"},
		{"ccfuzz/unknown-mutation", "ccfuzz", []string{"-mutate", "no-such-bug"}, 2, "unknown -mutate"},
		{"ccprof/bad-format", "ccprof", []string{"-format", "yaml", imgMarker}, 2, "unknown -format"},

		// The ccprof diff subcommand keeps the same contract: flag misuse
		// and malformed invocations exit 2 with usage, unreadable
		// artifacts exit 1.
		{"ccprof/diff-no-args", "ccprof", []string{"diff"}, 2, "Usage"},
		{"ccprof/diff-one-arg", "ccprof", []string{"diff", "only.json"}, 2, "Usage"},
		{"ccprof/diff-bogus-flag", "ccprof", []string{"diff", "-bogusflag"}, 2, "flag provided but not defined"},
		{"ccprof/diff-missing-file", "ccprof", []string{"diff", "no-such-old.json", "no-such-new.json"}, 1, "no such file"},

		// The attribution table flags run the ordinary profiled path.
		{"simrun/profile", "simrun", []string{"-profile", imgMarker}, 0, ""},
		{"ccprof/procs", "ccprof", []string{"-procs", imgMarker}, 0, ""},

		// Fast-tier flag contract: bad mode values and incoherent flag
		// combinations exit 2 with usage; the valid tiers run clean.
		{"simrun/bad-mode", "simrun", []string{"-mode", "warp", imgMarker}, 2, "bad -mode"},
		{"simrun/checkpoint-at-needs-checkpoint", "simrun", []string{"-checkpoint-at", "5", imgMarker}, 2, "-checkpoint-at needs -checkpoint"},
		{"simrun/checkpoint-needs-exact", "simrun", []string{"-mode", "sampled", "-checkpoint", "ck.json", imgMarker}, 2, "-checkpoint requires -mode exact"},
		{"simrun/restore-with-compare", "simrun", []string{"-restore", "ck.json", "-compare"}, 2, "mutually exclusive"},
		{"simrun/restore-with-arg", "simrun", []string{"-restore", "ck.json", imgMarker}, 2, "Usage"},
		{"simrun/sampled-with-telemetry", "simrun", []string{"-mode", "sampled", "-telemetry", imgMarker}, 2, "detailed-engine observers"},
		{"simrun/functional-with-profile", "simrun", []string{"-mode", "functional", "-profile", imgMarker}, 2, "detailed-engine observers"},
		{"simrun/restore-with-checkpoint", "simrun", []string{"-restore", "ck.json", "-checkpoint", "ck3.json"}, 2, "-restore and -checkpoint are mutually exclusive"},
		{"simrun/restore-with-profile", "simrun", []string{"-restore", "ck.json", "-profile"}, 2, "-restore supports only"},
		{"simrun/checkpoint-with-compare", "simrun", []string{"-checkpoint", "ck.json", "-compare", "a.img", "b.img"}, 2, "mutually exclusive"},
		{"simrun/restore-missing-file", "simrun", []string{"-mode", "functional", "-restore", "no-such.ck"}, 1, "no such file"},
		{"simrun/functional-runs", "simrun", []string{"-mode", "functional", imgMarker}, 0, ""},
		{"simrun/sampled-runs", "simrun", []string{"-mode", "sampled", "-sample-window", "100", "-sample-interval", "400", imgMarker}, 0, ""},
		{"ccprof/bad-mode", "ccprof", []string{"-mode", "warp", imgMarker}, 2, "bad -mode"},
		{"ccprof/sampled-with-procs", "ccprof", []string{"-mode", "sampled", "-procs", imgMarker}, 2, "-mode sampled supports only"},
		{"ccprof/sampled-csv", "ccprof", []string{"-mode", "sampled", "-format", "csv", imgMarker}, 2, "-mode sampled supports only"},
		{"ccprof/sampled-runs", "ccprof", []string{"-mode", "sampled", imgMarker}, 0, ""},
		{"ccprof/scheme-on-compressed", "ccprof", []string{"-scheme", "dict", ccImgMarker}, 1, "already compressed"},
		{"ccprof/selective-needs-scheme", "ccprof", []string{"-selective", "0.5", imgMarker}, 2, "-selective needs a compressing -scheme"},
		{"ccbench/gate-bogus-sampled-flag", "ccbench", []string{"gate", "-sampled-drift", "notanumber"}, 2, "invalid value"},
		{"ccfuzz/bad-functional-flag", "ccfuzz", []string{"-functional", "maybe"}, 2, "Usage"},

		// Unknown schemes resolve through the codec registry: the error
		// names the available schemes and the tool exits 1.
		{"ccprof/unknown-scheme", "ccprof", []string{"-scheme", "zstd", srcMarker}, 1, "available"},
		{"cccompress/unknown-scheme", "cccompress", []string{"-scheme", "zstd", imgMarker}, 1, "available"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			args := make([]string, len(tc.args))
			for i, a := range tc.args {
				switch a {
				case imgMarker:
					a = imgPath
				case srcMarker:
					a = srcPath
				case ccImgMarker:
					a = ccImgPath
				}
				args[i] = a
			}
			cmd := exec.Command(filepath.Join(binDir, tc.tool), args...)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			code := 0
			if ee, ok := err.(*exec.ExitError); ok {
				code = ee.ExitCode()
			} else if err != nil {
				t.Fatalf("running %s: %v", tc.tool, err)
			}
			if tc.want == anyNonZero {
				if code == 0 {
					t.Errorf("%s %v exited 0; want a failure", tc.tool, args)
				}
			} else if code != tc.want {
				t.Errorf("%s %v exited %d, want %d\nstderr:\n%s", tc.tool, args, code, tc.want, stderr.String())
			}
			if tc.stderr != "" && !bytes.Contains(stderr.Bytes(), []byte(tc.stderr)) {
				t.Errorf("%s %v stderr missing %q:\n%s", tc.tool, args, tc.stderr, stderr.String())
			}
		})
	}
}

// Markers expanded to the per-run temp paths at execution time (the
// table is built before TestMain's artifacts exist in the entries).
const (
	imgMarker   = "<img>"
	srcMarker   = "<src>"
	ccImgMarker = "<cc.img>"
)
