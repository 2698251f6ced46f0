package telemetry

// Timeline exporters: the window records as CSV (one row per window,
// spreadsheet/pandas-ready) or JSON (schema-stamped), plus the phase
// summary — per-window CPI statistics and the top-k hottest windows by
// decompression share — embedded in reports and rendered in the text
// report.

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/cpu"
)

// WriteTimelineCSV writes one row per window. Columns are stable: the
// fixed counters first, then the CPI-stack components in CycleKind
// order under cpi_<key> headers.
func WriteTimelineCSV(w io.Writer, records []WindowRecord) error {
	var b strings.Builder
	b.WriteString("index,start_instr,end_instr,start_cycle,end_cycle,cycles,instrs,handler_instrs," +
		"imiss_native,imiss_compressed,exceptions,exc_cycles_total,exc_cycles_max," +
		"fetch_stalls,load_stalls,load_use_stalls,bus_reads,bus_bytes")
	for k := cpu.CycleKind(0); k < cpu.NumCycleKinds; k++ {
		b.WriteString(",cpi_" + k.Key())
	}
	b.WriteByte('\n')
	for _, r := range records {
		fmt.Fprintf(&b, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d",
			r.Index, r.StartInstr, r.EndInstr, r.StartCycle, r.EndCycle,
			r.Cycles, r.Instrs, r.HandlerInstrs,
			r.IMissNative, r.IMissCompressed, r.Exceptions,
			r.ExcCyclesTotal, r.ExcCyclesMax,
			r.FetchStalls, r.LoadStalls, r.LoadUseStalls,
			r.BusReads, r.BusBytes)
		for _, v := range r.CPIStack {
			fmt.Fprintf(&b, ",%d", v)
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteTimelineJSON writes the windows as a schema-stamped JSON
// document (the ReportSchema version: the timeline shipped with v3):
// {schema_version, window_size, windows}, indented two spaces as
// encoding/json renders it (timeline_test.go keeps that rendering as
// the oracle). Records are rendered into one reused buffer that is
// written whenever it fills, so the document never sits in memory.
func WriteTimelineJSON(w io.Writer, size uint64, records []WindowRecord) error {
	b := fmt.Appendf(make([]byte, 0, 64<<10), "{\n  \"schema_version\": %d,\n  \"window_size\": %d,\n  \"windows\": [",
		ReportSchema, size)
	for i := range records {
		if i > 0 {
			b = append(b, ',')
		}
		b = records[i].AppendJSON(append(b, "\n    {\n      "...), ",\n      ")
		b = append(b, "\n    }"...)
		if len(b) > 60<<10 {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
	}
	if len(records) > 0 {
		b = append(b, "\n  "...)
	}
	_, err := w.Write(append(b, "]\n}\n"...))
	return err
}

// HotWindow is one entry of the phase summary's hottest-windows ranking.
type HotWindow struct {
	Index       int     `json:"index"`
	StartInstr  uint64  `json:"start_instr"`
	Cycles      uint64  `json:"cycles"`
	Exceptions  uint64  `json:"exceptions"`
	DecompShare float64 `json:"decomp_share"` // (handler + exc_service) / cycles
	CPI         float64 `json:"cpi"`
}

// TimelineSummary is the phase-summary stanza: how the CPI moved across
// the run and which windows paid the most for decompression. Embedded
// in schema-v3 reports when a window sampler was attached.
type TimelineSummary struct {
	WindowSize uint64 `json:"window_size"`
	Windows    int    `json:"windows"`

	// Per-window CPI distribution (cycles per committed instruction,
	// user + handler, so handler-only windows are well-defined).
	CPIMin  float64 `json:"cpi_min"`
	CPIMean float64 `json:"cpi_mean"`
	CPIMax  float64 `json:"cpi_max"`

	// HottestByDecomp ranks windows by decompression share (handler
	// execution + exception service cycles over window cycles),
	// descending; ties break toward the earlier window.
	HottestByDecomp []HotWindow `json:"hottest_by_decomp,omitempty"`
}

// SummarizeTimeline digests the windows into the phase summary, keeping
// the top-k hottest windows by decompression share (only windows that
// did any decompression work rank).
func SummarizeTimeline(size uint64, records []WindowRecord, k int) *TimelineSummary {
	sum := &TimelineSummary{WindowSize: size, Windows: len(records)}
	if len(records) == 0 {
		return sum
	}
	var totalCycles, totalInstrs uint64
	sum.CPIMin = records[0].CPI()
	for _, r := range records {
		cpi := r.CPI()
		if cpi < sum.CPIMin {
			sum.CPIMin = cpi
		}
		if cpi > sum.CPIMax {
			sum.CPIMax = cpi
		}
		totalCycles += r.Cycles
		totalInstrs += r.Instrs + r.HandlerInstrs
	}
	if totalInstrs > 0 {
		sum.CPIMean = float64(totalCycles) / float64(totalInstrs)
	}
	hot := make([]HotWindow, 0, len(records))
	for _, r := range records {
		if share := r.DecompShare(); share > 0 {
			hot = append(hot, HotWindow{
				Index: r.Index, StartInstr: r.StartInstr, Cycles: r.Cycles,
				Exceptions: r.Exceptions, DecompShare: share, CPI: r.CPI(),
			})
		}
	}
	sort.SliceStable(hot, func(a, b int) bool { return hot[a].DecompShare > hot[b].DecompShare })
	if k > 0 && len(hot) > k {
		hot = hot[:k]
	}
	sum.HottestByDecomp = hot
	return sum
}

// Format renders the summary as an aligned text block for the human
// report.
func (s *TimelineSummary) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "timeline: %d windows of %d instructions; CPI min/mean/max %.3f/%.3f/%.3f\n",
		s.Windows, s.WindowSize, s.CPIMin, s.CPIMean, s.CPIMax)
	if len(s.HottestByDecomp) > 0 {
		fmt.Fprintf(&b, "  hottest windows by decompression share:\n")
		for _, h := range s.HottestByDecomp {
			fmt.Fprintf(&b, "    window %4d @instr %-10d %6.2f%% decomp  CPI %6.3f  %d exceptions\n",
				h.Index, h.StartInstr, h.DecompShare*100, h.CPI, h.Exceptions)
		}
	}
	return b.String()
}
