package cpu

import (
	"fmt"
	"math"
)

// CycleKind classifies where one simulated cycle went — the components
// of the CPI stack. The attribution is exhaustive: every cycle the
// timing model charges lands in exactly one component, and the sum over
// all components equals Stats.Cycles (CPIStack.Check enforces this; Run
// verifies it on every completed simulation).
type CycleKind int

// The CPI-stack components.
const (
	// CycleUser: base execute cycles of committed user instructions
	// (including the swic serialisation bubble if user code ever issues
	// one).
	CycleUser CycleKind = iota
	// CycleHandler: base execute cycles of decompression-handler
	// instructions, plus the swic serialisation bubbles the handler pays.
	CycleHandler
	// CycleFetchStall: stalls on hardware I-cache fills from backed
	// memory (native-region misses).
	CycleFetchStall
	// CycleLoadStall: stalls on D-cache miss fills.
	CycleLoadStall
	// CycleLoadUse: load-use interlock bubbles (MEM->EX forwarding gap).
	CycleLoadUse
	// CycleBranch: control-flow penalties — conditional-branch
	// mispredicts and the jr/jalr fetch-redirect bubble.
	CycleBranch
	// CycleExcService: decompression-exception mechanism overhead — the
	// exception-entry pipeline flush, the iret redirect, and (in
	// hardware-decompress mode) the fixed-latency unit's fill stalls.
	CycleExcService

	// NumCycleKinds is the number of CPI-stack components.
	NumCycleKinds
)

var cycleKindNames = [NumCycleKinds]string{
	"user", "handler", "fetch-stall", "load-stall",
	"load-use", "branch", "exc-service",
}

// cycleKindKeys are the stable machine-readable component names shared
// by ccprof and simrun -json.
var cycleKindKeys = [NumCycleKinds]string{
	"user_execute", "handler_execute", "fetch_stall", "load_stall",
	"load_use", "branch_penalty", "exc_service",
}

func (k CycleKind) String() string {
	if k < 0 || k >= NumCycleKinds {
		return fmt.Sprintf("CycleKind(%d)", int(k))
	}
	return cycleKindNames[k]
}

// Key returns the stable snake_case identifier used in machine-readable
// output (JSON/CSV). It never changes once shipped.
func (k CycleKind) Key() string {
	if k < 0 || k >= NumCycleKinds {
		return fmt.Sprintf("cycle_kind_%d", int(k))
	}
	return cycleKindKeys[k]
}

// CPIStack attributes every simulated cycle to a CycleKind. It is part
// of Stats and always maintained (the adds are a handful of array
// increments per instruction), so any run — simrun, experiments, tests —
// can decompose its cycles without attaching a collector.
type CPIStack [NumCycleKinds]uint64

// Total returns the sum of all attributed cycles.
func (s CPIStack) Total() uint64 {
	var n uint64
	for _, v := range s {
		n += v
	}
	return n
}

// Check returns an error when the attributed cycles do not sum exactly
// to total. A failure means the timing model charged a cycle the
// attribution missed (or double-counted one) — a simulator bug, never a
// property of the simulated program.
func (s CPIStack) Check(total uint64) error {
	if got := s.Total(); got != total {
		return fmt.Errorf("CPI stack sums to %d cycles, simulator charged %d (diff %+d): %v",
			got, total, int64(got)-int64(total), s)
	}
	return nil
}

// FillKind classifies an I-cache line fill reported to the telemetry
// sink.
type FillKind int

// I-cache fill kinds.
const (
	// FillNative is a hardware fill of a native-region line from backed
	// memory.
	FillNative FillKind = iota
	// FillHardwareDecomp is a fill performed by the modelled hardware
	// decompression unit (Config.HardwareDecompress).
	FillHardwareDecomp
)

func (k FillKind) String() string {
	switch k {
	case FillNative:
		return "native"
	case FillHardwareDecomp:
		return "hw-decomp"
	}
	return fmt.Sprintf("FillKind(%d)", int(k))
}

// TelemetrySink receives fine-grained timing events from the CPU. All
// call sites are nil-checked, so an unattached CPU pays only a pointer
// compare per event; internal/telemetry provides the standard
// implementation (histograms, Perfetto spans). Cycle arguments are
// Stats.Cycles timestamps.
type TelemetrySink interface {
	// ExcEnter reports a decompression exception raised at pc; cycle is
	// the timestamp before the entry flush is charged.
	ExcEnter(pc uint32, cycle uint64)
	// ExcReturn reports the handler's iret: epc is the faulting address
	// being resumed, cycle the timestamp after the iret completed, and
	// latency the full entry-to-iret service time (cycle - enter cycle).
	ExcReturn(epc uint32, cycle uint64, latency uint64)
	// IFill reports a non-exception I-cache line fill for pc that
	// stalled the pipeline for stall cycles, starting at cycle.
	IFill(pc uint32, cycle uint64, stall uint64, kind FillKind)
}

// Key is an attribution observer's answer to a callout (see CPU.OnKey):
// the user fetch addresses [Lo, Hi) over which its key holds, and the
// retirement count (Stats.Instrs + Stats.HandlerInstrs) at which it must
// be called again whatever the fetches do.
type Key struct {
	Lo, Hi uint64
	Cut    uint64
}

// AnyKey is the answer of an observer that constrains nothing.
var AnyKey = Key{Hi: 1 << 32, Cut: math.MaxUint64}

// AttachObserver adds fn to the CPU's attribution observers. Like
// AttachTrace it composes: every observer is called at every callout,
// in attach order, and the loop keeps the intersection of their ranges
// and the earliest of their cuts.
func (c *CPU) AttachObserver(fn func() Key) {
	prev := c.OnKey
	if prev == nil {
		c.OnKey = fn
		return
	}
	c.OnKey = func() Key {
		a, b := prev(), fn()
		return Key{Lo: max(a.Lo, b.Lo), Hi: min(a.Hi, b.Hi), Cut: min(a.Cut, b.Cut)}
	}
}

// CallEdges returns the CPU's call counts, by [call site, target]: the
// detailed policy counts every jal and jalr committed outside the
// decompression handler. Counting starts with the first call of
// CallEdges (profile.Recorder makes it when attached); every caller
// shares the one map.
func (c *CPU) CallEdges() map[[2]uint32]uint64 {
	if c.calls == nil {
		c.calls = make(map[[2]uint32]uint64)
	}
	return c.calls
}

// AttachTrace adds fn to the CPU's committed-instruction tracers.
// Unlike assigning Trace directly, attaching composes: every previously
// installed tracer keeps firing, in attach order — so the debugging ring
// (internal/trace) and the telemetry collector can observe the same run.
func (c *CPU) AttachTrace(fn func(pc, instr uint32, handler bool)) {
	prev := c.Trace
	if prev == nil {
		c.Trace = fn
		return
	}
	c.Trace = func(pc, instr uint32, handler bool) {
		prev(pc, instr, handler)
		fn(pc, instr, handler)
	}
}
