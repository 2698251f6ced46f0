package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the traced pass.
type span struct {
	Name     string
	Workload string
	Parent   string
	Start    time.Time
	End      time.Time
}

// tracer keeps spans in memory; they are written once, at exit.
type tracer struct {
	origin time.Time
	spans  []span
	open   []string // names of the spans enclosing the current call
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// do times fn as a span named name (nested under any span open around
// it) and returns its duration in seconds.
func (t *tracer) do(workload, name string, fn func() error) (float64, error) {
	parent := ""
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, name)
	start := time.Now()
	err := fn()
	end := time.Now()
	t.open = t.open[:len(t.open)-1]
	t.spans = append(t.spans, span{name, workload, parent, start, end})
	return end.Sub(start).Seconds(), err
}

// writeChrome writes the spans as Chrome trace-event JSON (complete
// "X" events, one thread per workload), which Perfetto and
// chrome://tracing open directly.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`  // µs since the benchmark started
		Dur  float64           `json:"dur"` // µs
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	tids := map[string]int{}
	var events []event
	for _, s := range t.spans {
		tid, ok := tids[s.Workload]
		if !ok {
			tid = len(tids) + 1
			tids[s.Workload] = tid
			events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
				Args: map[string]string{"name": s.Workload}})
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: tid,
			Ts:   float64(s.Start.Sub(t.origin).Nanoseconds()) / 1e3,
			Dur:  float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Args: map[string]string{"workload": s.Workload, "parent": s.Parent},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
