package perfwatch

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// FuzzTrajectoryLoad feeds arbitrary bytes to the trajectory loader.
// Load must either reject them with an error or accept a trajectory
// that round-trips: written back, loaded again and rewritten, it is
// byte-equal. It must never panic, and what it allocates is bounded by
// the bytes it read, never by a size the file claims. The seed corpus
// holds the first sample of the repository's BENCH_ci.json, a
// truncation of it, a newer schema and two degenerate files.
func FuzzTrajectoryLoad(f *testing.F) {
	shipped, err := Load(filepath.Join("..", "..", "BENCH_ci.json"))
	if err != nil {
		f.Fatal(err)
	}
	if len(shipped.Entries) == 0 || len(shipped.Entries[0].Samples) == 0 {
		f.Fatal("BENCH_ci.json has no samples")
	}
	shipped.Entries = shipped.Entries[:1]
	shipped.Entries[0].Samples = shipped.Entries[0].Samples[:1]
	path := filepath.Join(f.TempDir(), "BENCH_seed.json")
	if err := shipped.Write(path); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte(`{"schema_version": 2, "host": "ci", "entries": []}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		in := filepath.Join(dir, "BENCH_in.json")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr, err := Load(in)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1024*uint64(len(data))+1<<20 {
			t.Fatalf("loading %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			return
		}
		first, second := filepath.Join(dir, "first.json"), filepath.Join(dir, "second.json")
		if err := tr.Write(first); err != nil {
			t.Fatalf("accepted trajectory does not write: %v", err)
		}
		again, err := Load(first)
		if err != nil {
			t.Fatalf("accepted trajectory's own serialization is refused: %v", err)
		}
		if err := again.Write(second); err != nil {
			t.Fatal(err)
		}
		a, _ := os.ReadFile(first)
		b, _ := os.ReadFile(second)
		if !bytes.Equal(a, b) {
			t.Fatalf("round trip not byte-equal:\n%s\nvs\n%s", a, b)
		}
	})
}
