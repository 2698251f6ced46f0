package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/cpu"
)

// TestTimelineJSONMatchesEncoder checks the streamed timeline against
// the encoding/json + SetIndent rendering of the same document, byte
// for byte, for nil, empty, one and many records.
func TestTimelineJSONMatchesEncoder(t *testing.T) {
	many := make([]WindowRecord, 50)
	for i := range many {
		r := &many[i]
		v := uint64(i)
		r.Index = i
		r.StartInstr, r.EndInstr = 64*v, 64*v+64
		r.StartCycle, r.EndCycle = 300*v+v*v, 300*v+v*v+299
		r.Cycles, r.Instrs, r.HandlerInstrs = 299+v, 64-v%7, v%7
		r.IMissNative, r.IMissCompressed, r.Exceptions = v%3, v%5, v%2
		r.FetchStalls, r.LoadStalls, r.LoadUseStalls = 3*v, 2*v, v
		r.ExcCyclesTotal, r.ExcCyclesMax = 40*(v%2), 40*(v%2)
		r.BusReads, r.BusBytes = v%4, 32*(v%4)
		for k := cpu.CycleKind(0); k < cpu.NumCycleKinds; k++ {
			r.CPIStack[k] = v*uint64(k+1) + 1<<40
		}
	}
	for _, tc := range []struct {
		name    string
		size    uint64
		records []WindowRecord
	}{
		{"nil", 8192, nil},
		{"empty", 1, []WindowRecord{}},
		{"one", 7, many[3:4]},
		{"many", 64, many},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got bytes.Buffer
			if err := WriteTimelineJSON(&got, tc.size, tc.records); err != nil {
				t.Fatal(err)
			}
			windows := tc.records
			if windows == nil {
				windows = []WindowRecord{}
			}
			var want bytes.Buffer
			enc := json.NewEncoder(&want)
			enc.SetIndent("", "  ")
			err := enc.Encode(struct {
				SchemaVersion int            `json:"schema_version"`
				WindowSize    uint64         `json:"window_size"`
				Windows       []WindowRecord `json:"windows"`
			}{ReportSchema, tc.size, windows})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("streamed timeline differs from encoding/json:\n%s\nwant:\n%s", got.Bytes(), want.Bytes())
			}
		})
	}
}
