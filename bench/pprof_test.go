package main

import (
	"bytes"
	"compress/gzip"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

var spinSink uint64

//go:noinline
func spin(d time.Duration) {
	x := spinSink | 1
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1<<16; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
	}
	spinSink = x
}

// TestReadProfileSpin profiles a function that only spins and checks
// the reader attributes at least 80% of the samples to it.
func TestReadProfileSpin(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	spin(400 * time.Millisecond)
	pprof.StopCPUProfile()
	prof, err := readProfile(buf.Bytes(), "")
	if err != nil {
		t.Fatal(err)
	}
	if prof.Total < 10 {
		t.Skipf("only %d samples in 400ms of spinning; the host is too loaded to judge", prof.Total)
	}
	var in int64
	for f, n := range prof.Leaves {
		if strings.HasSuffix(f.Func, ".spin") {
			in += n
			if !strings.HasSuffix(f.File, "pprof_test.go") {
				t.Errorf("spin's file is %q", f.File)
			}
		}
	}
	if share := float64(in) / float64(prof.Total); share < 0.8 {
		t.Errorf("spin holds %.0f%% of %d samples, want >= 80%%", 100*share, prof.Total)
	}
}

//go:noinline
func spinOutside(d time.Duration) { spin(d) }

// TestReadProfileWithin checks that folding within a function keeps
// only the samples whose stack passes through it.
func TestReadProfileWithin(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	spinOutside(200 * time.Millisecond)
	markedRun(func() error { spin(200 * time.Millisecond); return nil })
	pprof.StopCPUProfile()
	all, err := readProfile(buf.Bytes(), "")
	if err != nil {
		t.Fatal(err)
	}
	marked, err := readProfile(buf.Bytes(), markedRunName)
	if err != nil {
		t.Fatal(err)
	}
	if all.Total < 10 {
		t.Skipf("only %d samples in 400ms of spinning; the host is too loaded to judge", all.Total)
	}
	if marked.Total == 0 || marked.Total >= all.Total {
		t.Errorf("%d samples within %s of %d in all; want some, not all", marked.Total, markedRunName, all.Total)
	}
}

func TestReadProfileRejectsTruncated(t *testing.T) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	// Field 2 (a Sample), length-delimited, claiming 100 bytes.
	zw.Write([]byte{2<<3 | 2, 100, 1})
	zw.Close()
	if _, err := readProfile(buf.Bytes(), ""); err == nil {
		t.Error("a truncated profile was accepted")
	}
	if _, err := readProfile([]byte("not gzip"), ""); err == nil {
		t.Error("a non-gzip profile was accepted")
	}
}

func TestLayerOf(t *testing.T) {
	cases := []struct {
		fn, file, want string
	}{
		{"repro/internal/cpu.(*CPU).execute", "/x/internal/cpu/exec.go", "cpu_exec"},
		{"repro/internal/cpu.(*CPU).fetchLine", "/x/internal/cpu/predecode.go", "cpu_predecode"},
		{"repro/internal/cpu.(*CPU).frun", "/x/internal/cpu/funct.go", "cpu_funct"},
		{"repro/internal/cpu.(*CPU).Load", "/x/internal/cpu/cpu.go", "cpu_other"},
		{"repro/internal/isa.SpecOf", "/x/internal/isa/mnemonic.go", "cpu_predecode"},
		{"repro/internal/cache.(*Cache).Access", "", "cache"},
		{"repro/internal/bpred.(*Predictor).Update", "", "bpred"},
		{"repro/internal/mem.(*Memory).LoadByte", "", "mem"},
		{"repro/internal/telemetry.(*WindowSampler).Tick", "", "telemetry"},
		{"repro/internal/fastpath.Sampled", "", "fastpath"},
		{"runtime.mallocgc", "", "runtime"},
		{"internal/runtime/atomic.Load", "", "runtime"},
		{"runtime/internal/sys.Bswap64", "", "runtime"},
		{"internal/cpu.Initialize", "", "other"},
		{"bytes.(*Buffer).Write", "", "other"},
	}
	for _, c := range cases {
		if got := layerOf(frame{c.fn, c.file}); got != c.want {
			t.Errorf("layerOf(%s) = %s, want %s", c.fn, got, c.want)
		}
	}
	shares := layerShares(&cpuProfile{Leaves: map[frame]int64{
		{"runtime.mallocgc", ""}: 1, {"repro/internal/cache.(*Cache).Access", ""}: 3,
	}, Total: 4})
	if shares["cache"] != 75 || shares["runtime"] != 25 || len(shares) != len(hostLayers) {
		t.Errorf("layerShares = %v", shares)
	}
}
