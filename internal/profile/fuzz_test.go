package profile

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cpu"
)

// FuzzProfileRead feeds arbitrary bytes to the artifact loader. Read
// must either reject them with an error or accept an artifact that
// round-trips: written back with WriteJSON, read again and rewritten,
// it is byte-equal. It must never panic. The seed corpus holds a real
// attributed run's artifact (compressed, so handler cycles are
// populated) plus a truncation and a schema edit of it.
func FuzzProfileRead(f *testing.F) {
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "sort.s"))
	if err != nil {
		f.Fatal(err)
	}
	r := NewRecorder(compress(f, assemble(f, string(src)), "dict"))
	c, err := cpu.New(cpu.DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	r.Attach(c)
	if err := c.Load(r.im); err != nil {
		f.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		f.Fatal(err)
	}
	p := r.Profile()
	p.SetIdentity("sort.s", "dict")
	var real bytes.Buffer
	if err := p.WriteJSON(&real); err != nil {
		f.Fatal(err)
	}
	f.Add(real.Bytes())
	f.Add(real.Bytes()[:real.Len()/2])
	f.Add(bytes.Replace(real.Bytes(), []byte(`"schema_version": 1`), []byte(`"schema_version": 2`), 1))
	f.Add([]byte(`{"schema_version": 1, "line_bytes": 32, "total": {}, "lines": [], "procs": []}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Read(bytes.NewReader(data), "fuzz")
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := p.WriteJSON(&first); err != nil {
			t.Fatalf("accepted artifact does not serialize: %v", err)
		}
		q, err := Read(bytes.NewReader(first.Bytes()), "rewritten")
		if err != nil {
			t.Fatalf("accepted artifact's own serialization is refused: %v", err)
		}
		var second bytes.Buffer
		if err := q.WriteJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip not byte-equal:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
