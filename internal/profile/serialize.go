package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/cpu"
)

// WriteJSON writes the profile artifact as indented JSON: the bytes
// encoding/json renders with a two-space indent (serialize_test.go
// keeps that rendering as the oracle). Records are rendered into one
// reused buffer that is written whenever it fills.
func (p *Profile) WriteJSON(w io.Writer) error {
	b := make([]byte, 0, 64<<10)
	b = append(b, "{\n  \"schema_version\": "...)
	b = strconv.AppendInt(b, int64(p.SchemaVersion), 10)
	if p.Image != "" {
		b = appendString(append(b, ",\n  \"image\": "...), p.Image)
	}
	if p.Scheme != "" {
		b = appendString(append(b, ",\n  \"scheme\": "...), p.Scheme)
	}
	b = append(b, ",\n  \"line_bytes\": "...)
	b = strconv.AppendInt(b, int64(p.LineBytes), 10)
	b = append(b, ",\n  \"total\": {\n    "...)
	b = appendCost(b, &p.Total, ",\n    ")
	b = append(b, "\n  },\n  \"lines\": "...)
	b, err := appendRecords(w, b, len(p.Lines), p.Lines == nil, func(b []byte, i int) []byte {
		b = append(b, "\"addr\": "...)
		b = strconv.AppendUint(b, uint64(p.Lines[i].Addr), 10)
		return appendCost(append(b, ",\n      "...), &p.Lines[i].Cost, ",\n      ")
	})
	if err != nil {
		return err
	}
	b = append(b, ",\n  \"procs\": "...)
	b, err = appendRecords(w, b, len(p.Procs), p.Procs == nil, func(b []byte, i int) []byte {
		b = appendString(append(b, "\"name\": "...), p.Procs[i].Name)
		b = append(b, ",\n      \"addr\": "...)
		b = strconv.AppendUint(b, uint64(p.Procs[i].Addr), 10)
		return appendCost(append(b, ",\n      "...), &p.Procs[i].Cost, ",\n      ")
	})
	if err != nil {
		return err
	}
	if p.Manifest != nil {
		m, err := json.MarshalIndent(p.Manifest, "  ", "  ")
		if err != nil {
			return err
		}
		b = append(append(b, ",\n  \"manifest\": "...), m...)
	}
	b = append(b, "\n}\n"...)
	_, err = w.Write(b)
	return err
}

// appendRecords appends a top-level member's array of n records, each
// an object at depth 2 whose members rec appends from its first one on.
// It writes b to w, and starts it afresh, whenever it passes 60 KB.
func appendRecords(w io.Writer, b []byte, n int, null bool, rec func([]byte, int) []byte) ([]byte, error) {
	switch {
	case null:
		return append(b, "null"...), nil
	case n == 0:
		return append(b, "[]"...), nil
	}
	b = append(b, '[')
	for i := range n {
		if i > 0 {
			b = append(b, ',')
		}
		b = rec(append(b, "\n    {\n      "...), i)
		b = append(b, "\n    }"...)
		if len(b) > 60<<10 {
			if _, err := w.Write(b); err != nil {
				return nil, err
			}
			b = b[:0]
		}
	}
	return append(b, "\n  ]"...), nil
}

// AppendJSON appends w's members as encoding/json renders them
// indented: sep is the comma, newline and indent between two of them.
// The caller writes the braces around them; a timeline of millions of
// windows is rendered one record at a time into a reused buffer.
func (w *Window) AppendJSON(b []byte, sep string) []byte {
	b = append(b, "\"index\": "...)
	b = strconv.AppendInt(b, int64(w.Index), 10)
	b = appendMember(append(b, sep...), "start_instr", w.StartInstr)
	b = appendMember(append(b, sep...), "end_instr", w.EndInstr)
	b = appendMember(append(b, sep...), "start_cycle", w.StartCycle)
	b = appendMember(append(b, sep...), "end_cycle", w.EndCycle)
	return appendCost(append(b, sep...), &w.Cost, sep)
}

// appendCost appends c's members one a line: sep is the comma, newline
// and indent between two of them, and cpi_stack's elements sit one
// level deeper.
func appendCost(b []byte, c *Cost, sep string) []byte {
	for i, f := range [...]struct {
		name string
		v    uint64
	}{
		{"cycles", c.Cycles}, {"instrs", c.Instrs}, {"handler_instrs", c.HandlerInstrs},
		{"imiss_native", c.IMissNative}, {"imiss_compressed", c.IMissCompressed}, {"exceptions", c.Exceptions},
		{"fetch_stalls", c.FetchStalls}, {"load_stalls", c.LoadStalls}, {"load_use_stalls", c.LoadUseStalls},
		{"exc_cycles_total", c.ExcCyclesTotal}, {"exc_cycles_max", c.ExcCyclesMax},
	} {
		if i > 0 {
			b = append(b, sep...)
		}
		b = appendMember(b, f.name, f.v)
	}
	nl := sep[1:]
	b = append(append(b, sep...), "\"cpi_stack\": ["...)
	for k, v := range c.CPIStack {
		if k > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(append(append(b, nl...), "  "...), v, 10)
	}
	b = append(append(b, nl...), ']')
	b = appendMember(append(b, sep...), "bus_reads", c.BusReads)
	return appendMember(append(b, sep...), "bus_bytes", c.BusBytes)
}

func appendMember(b []byte, name string, v uint64) []byte {
	b = append(append(append(b, '"'), name...), "\": "...)
	return strconv.AppendUint(b, v, 10)
}

// appendString appends s as encoding/json quotes it. Names are almost
// always plain ASCII, which needs no escape; anything else takes
// encoding/json's own path (HTML-safe escapes, U+2028/U+2029, invalid
// UTF-8 replaced).
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// WriteCSV writes the profile as flat rows, one attribution bucket per
// line — trivially greppable and joinable across runs. The kind column
// distinguishes the three record classes (total, line, proc); keys
// reuse the JSON field names.
func (p *Profile) WriteCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString("kind,name,addr,cycles,instrs,handler_instrs,imiss_native,imiss_compressed,exceptions,fetch_stalls,load_stalls,load_use_stalls,exc_cycles_total,exc_cycles_max,bus_reads,bus_bytes")
	for k := cpu.CycleKind(0); k < cpu.NumCycleKinds; k++ {
		b.WriteString(",cpi_stack." + k.Key())
	}
	b.WriteByte('\n')
	row := func(kind, name string, addr uint32, c Cost) {
		fmt.Fprintf(&b, "%s,%s,0x%08x,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d",
			kind, name, addr, c.Cycles, c.Instrs, c.HandlerInstrs,
			c.IMissNative, c.IMissCompressed, c.Exceptions,
			c.FetchStalls, c.LoadStalls, c.LoadUseStalls,
			c.ExcCyclesTotal, c.ExcCyclesMax, c.BusReads, c.BusBytes)
		for k := cpu.CycleKind(0); k < cpu.NumCycleKinds; k++ {
			fmt.Fprintf(&b, ",%d", c.CPIStack[k])
		}
		b.WriteByte('\n')
	}
	row("total", "", 0, p.Total)
	for _, l := range p.Lines {
		row("line", "", l.Addr, l.Cost)
	}
	for _, pr := range p.Procs {
		row("proc", pr.Name, pr.Addr, pr.Cost)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteFile serializes the profile by extension: .csv writes the flat
// row form, anything else the JSON artifact.
func (p *Profile) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if filepath.Ext(path) == ".csv" {
		err = p.WriteCSV(f)
	} else {
		err = p.WriteJSON(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Read parses a JSON profile artifact, refusing schema mismatches (both
// versions named) and revalidating the sum invariants, so no consumer
// ever trusts a corrupted or foreign artifact.
func Read(r io.Reader, name string) (*Profile, error) {
	var p Profile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("profile: parse %s: %w", name, err)
	}
	if p.SchemaVersion != ArtifactSchema {
		return nil, fmt.Errorf("profile: %s has artifact schema %d, this build supports schema %d",
			name, p.SchemaVersion, ArtifactSchema)
	}
	if err := p.Check(); err != nil {
		return nil, fmt.Errorf("profile: %s: %w", name, err)
	}
	return &p, nil
}

// Load reads a JSON profile artifact from disk (see Read).
func Load(path string) (*Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f, filepath.Base(path))
}
