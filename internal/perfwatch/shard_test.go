package perfwatch

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestShardedRunDeterminism shards the FULL workload registry across
// several workers and demands the parallel determinism contract: sample
// order matches the registry, simulated metrics are bit-identical to
// the serial run, and Progress fires in order. Run under -race this is
// also the thread-safety proof for the shared experiment.Suite.
func TestShardedRunDeterminism(t *testing.T) {
	serial := NewRunner(testScale)
	fp := NewFingerprint(testScale)
	ref, err := serial.Run(fp, nil)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{2, 4} {
		r := NewRunner(testScale)
		r.Workers = workers
		var mu sync.Mutex
		var progress []int
		r.Progress = func(done, total int, last Sample) {
			mu.Lock()
			progress = append(progress, done)
			mu.Unlock()
		}
		entry, err := r.Run(fp, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(entry.Samples) != len(ref.Samples) {
			t.Fatalf("workers=%d: %d samples, serial %d", workers, len(entry.Samples), len(ref.Samples))
		}
		for i, s := range entry.Samples {
			if s.Workload != ref.Samples[i].Workload {
				t.Fatalf("workers=%d: sample %d is %q, serial has %q",
					workers, i, s.Workload, ref.Samples[i].Workload)
			}
			if diffs := s.Sim.Diff(ref.Samples[i].Sim); len(diffs) != 0 {
				t.Fatalf("workers=%d: %s simulated metrics diverged from serial run: %v",
					workers, s.Workload, diffs)
			}
		}
		for i, done := range progress {
			if done != i+1 {
				t.Fatalf("workers=%d: progress callbacks out of order: %v", workers, progress)
			}
		}
		if len(progress) != len(ref.Samples) {
			t.Fatalf("workers=%d: %d progress callbacks for %d samples", workers, len(progress), len(ref.Samples))
		}
	}
}

// TestTrajectoryByteIdentity writes the same entry into two trajectory
// files and requires byte-identical output: the JSON emitter (which
// serialises the CPI-stack map) must be deterministic, since trajectory
// files are committed and diffed.
func TestTrajectoryByteIdentity(t *testing.T) {
	entry := runEntry(t, "go/native/16K")
	dir := t.TempDir()
	var files [2][]byte
	for i := range files {
		path := filepath.Join(dir, "bench.json")
		if i == 1 {
			path = filepath.Join(dir, "bench2.json")
		}
		traj, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		traj.Host = "test"
		if err := traj.Append(path, entry, 0); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = data
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatal("two writes of the same entry produced different trajectory bytes")
	}
}

// TestShardedRunnerSharedSuite hammers one Runner's Suite from many
// concurrent RunWorkload calls on the same benchmark, so the memoised
// image build, native baseline and compression paths all race-overlap.
func TestShardedRunnerSharedSuite(t *testing.T) {
	r := NewRunner(testScale)
	workloads := []string{"go/native/16K", "go/dict/16K", "go/dict+rf/16K", "go/codepack+rf/16K"}
	var wg sync.WaitGroup
	errs := make(chan error, len(workloads)*2)
	for range 2 {
		for _, name := range workloads {
			w, ok := Find(name)
			if !ok {
				t.Fatalf("unknown workload %q", name)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := r.RunWorkload(w); err != nil {
					errs <- err
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
