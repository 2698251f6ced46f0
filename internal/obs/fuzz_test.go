package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// FuzzManifestLoad feeds arbitrary bytes to the manifest loader. Load
// must either reject them with an error or accept a manifest that
// round-trips: written back, loaded again and rewritten, it is
// byte-equal. It must never panic, and what it allocates is bounded by
// the bytes it read, never by a size the file claims. The seed corpus
// holds a manifest New builds, the repository's benchmark sidecar
// manifest, a truncation of each and two degenerate files.
func FuzzManifestLoad(f *testing.F) {
	m := New("fuzz")
	m.SetConfig("scheme", "dict")
	m.AddInput("input.bin", []byte("payload"))
	m.Finish(time.Unix(0, 0))
	path := filepath.Join(f.TempDir(), "m.json")
	if err := m.Write(path); err != nil {
		f.Fatal(err)
	}
	built, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	shipped, err := os.ReadFile(filepath.Join("..", "..", "BENCH_ci.json.manifest.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{built, shipped} {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		in := filepath.Join(dir, "in.json")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := Load(in)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1024*uint64(len(data))+1<<20 {
			t.Fatalf("loading %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			return
		}
		first, second := filepath.Join(dir, "first.json"), filepath.Join(dir, "second.json")
		if err := m.Write(first); err != nil {
			t.Fatalf("accepted manifest does not write: %v", err)
		}
		again, err := Load(first)
		if err != nil {
			t.Fatalf("accepted manifest's own serialization is refused: %v", err)
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
