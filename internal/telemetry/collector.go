// Package telemetry is the simulator's observability layer: CPI-stack
// cycle accounting (maintained by internal/cpu, reported here), log2
// histograms of exception service and fill latencies, per-cache-set
// heatmaps, and exporters for Chrome trace-event JSON (Perfetto) and
// folded flamegraph stacks. A Collector attaches to a CPU through
// nil-checked hooks, so an unattached simulation pays essentially
// nothing.
package telemetry

import (
	"repro/internal/cpu"
	"repro/internal/profile"
)

// Span is one closed handler-service interval: a decompression
// exception at PC entered at Start and its handler iret'd at End
// (End - Start is the service latency, Stats.ExcCycles* terms).
type Span struct {
	PC    uint32 `json:"pc"`
	Start uint64 `json:"start_cycle"`
	End   uint64 `json:"end_cycle"`
}

// FillEvent is one non-exception I-cache line fill.
type FillEvent struct {
	PC    uint32       `json:"pc"`
	Cycle uint64       `json:"cycle"`
	Stall uint64       `json:"stall"`
	Kind  cpu.FillKind `json:"kind"`
}

// DefaultMaxEvents is the cap on recorded spans and fill events (each
// costs ~24 bytes) for a run whose Chrome trace will be written; past
// the cap, events are counted but dropped.
const DefaultMaxEvents = 1 << 20

// Collector gathers a run's telemetry: exception spans and fill events
// from the CPU's telemetry sink, latency and burst histograms, per-set
// cache heatmaps and, when Windows or Recorder is set, the ledger axes.
// It observes no commit and no branch itself, so attaching one without
// ledger axes leaves c.Trace and c.BP.OnResolve nil. Zero value is not
// usable; call New, then Attach before cpu.Load/Run.
type Collector struct {
	// MaxEvents caps Spans and Fills each. Only the Chrome trace
	// exporter reads them, so the zero value records none: set it (to
	// DefaultMaxEvents, say) before the run when the trace will be
	// written.
	MaxEvents int

	// Histograms.
	ExcLatency  *Histogram // exception service latency, entry to iret
	FillLatency *Histogram // I-miss fill latency (hardware fills + exception service)
	BurstBytes  *Histogram // bus burst lengths, in bytes

	// Per-set cache heatmaps (sized at Attach).
	IC *SetCounters
	DC *SetCounters

	// Event streams for the Chrome trace exporter; DroppedEvents counts
	// the events past a nonzero MaxEvents.
	Spans         []Span
	Fills         []FillEvent
	DroppedEvents uint64

	// Windows, when set before Attach, samples the full CPI stack,
	// miss/exception counts and bus bytes every Windows.Size committed
	// instructions (the timeline behind ccprof -timeline and the
	// Perfetto counter tracks).
	Windows *WindowSampler

	// Recorder, when set before Attach, attributes the run per I-cache
	// line and per procedure. Its ledger also carries the Windows axis,
	// so lines, procedures and windows share one delta per run and one
	// Verify.
	Recorder *profile.Recorder

	cpu     *cpu.CPU
	openPC  uint32 // pc of the open exception span
	openAt  uint64
	hasOpen bool
}

// New returns an empty collector.
func New() *Collector {
	return &Collector{
		ExcLatency:  NewHistogram("exception service latency", "cycles"),
		FillLatency: NewHistogram("I-miss fill latency", "cycles"),
		BurstBytes:  NewHistogram("bus burst length", "bytes"),
	}
}

// Attach wires the collector into the machine: the CPU's telemetry
// sink (exception spans and fills), both caches' set observers and the
// memory bus hook. With Windows or Recorder set it also attaches their
// one ledger, which rides the CPU's key callouts (cpu.CPU.OnKey) and
// composes with other observers. The collector installs no commit
// tracer and no branch hook: commit and branch counts are in cpu.Stats
// and the predictor, and a collector without ledger axes leaves the
// detailed loop as fast as an unobserved one.
func (t *Collector) Attach(c *cpu.CPU) {
	t.cpu = c
	c.Tel = t
	t.IC = NewSetCounters("I-cache", c.IC.Config().Sets())
	t.DC = NewSetCounters("D-cache", c.DC.Config().Sets())
	c.IC.Obs = t.IC
	c.DC.Obs = t.DC
	c.Mem.OnBurst = func(bytes, cycles int) { t.BurstBytes.Observe(uint64(bytes)) }
	var l *profile.Ledger
	if t.Windows != nil {
		l = t.Windows.ledger
	}
	if t.Recorder != nil {
		l = t.Recorder.Ledger
		if t.Windows != nil {
			t.Windows.share(l)
		}
	}
	if l != nil {
		l.Attach(c)
	}
}

// ExcEnter implements cpu.TelemetrySink.
func (t *Collector) ExcEnter(pc uint32, cycle uint64) {
	t.openPC, t.openAt, t.hasOpen = pc, cycle, true
}

// ExcReturn implements cpu.TelemetrySink.
func (t *Collector) ExcReturn(epc uint32, cycle uint64, latency uint64) {
	t.ExcLatency.Observe(latency)
	t.FillLatency.Observe(latency)
	pc := epc
	start := cycle - latency
	if t.hasOpen {
		pc, start = t.openPC, t.openAt
		t.hasOpen = false
	}
	if len(t.Spans) < t.MaxEvents {
		t.Spans = append(t.Spans, Span{PC: pc, Start: start, End: cycle})
	} else if t.MaxEvents > 0 {
		t.DroppedEvents++
	}
}

// IFill implements cpu.TelemetrySink.
func (t *Collector) IFill(pc uint32, cycle uint64, stall uint64, kind cpu.FillKind) {
	t.FillLatency.Observe(stall)
	if len(t.Fills) < t.MaxEvents {
		t.Fills = append(t.Fills, FillEvent{PC: pc, Cycle: cycle, Stall: stall, Kind: kind})
	} else if t.MaxEvents > 0 {
		t.DroppedEvents++
	}
}
