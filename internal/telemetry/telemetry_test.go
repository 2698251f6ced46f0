package telemetry

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/profile"
	"repro/internal/program"
	"repro/internal/trace"
)

// testSrc is a three-procedure program with enough loops, calls, and
// data traffic to exercise every collector hook once compressed.
const testSrc = `
        .data
buf:    .word 0, 0, 0, 0, 0, 0, 0, 0
        .text
        .proc main
main:   ori   $s0, $zero, 24
        move  $s1, $zero
loop:   move  $a0, $s0
        jal   work
        addu  $s1, $s1, $v0
        addiu $s0, $s0, -1
        bgtz  $s0, loop
        andi  $a0, $s1, 0x7F
        ori   $v0, $zero, 10
        syscall
        .endp
        .proc work
work:   andi  $t0, $a0, 7
        sll   $t0, $t0, 2
        la    $t1, buf
        addu  $t1, $t1, $t0
        lw    $t2, 0($t1)
        addu  $t2, $t2, $a0
        sw    $t2, 0($t1)
        move  $a0, $t2
        addiu $sp, $sp, -4
        sw    $ra, 0($sp)
        jal   leaf
        lw    $ra, 0($sp)
        addiu $sp, $sp, 4
        jr    $ra
        .endp
        .proc leaf
leaf:   andi  $v0, $a0, 0xFF
        jr    $ra
        .endp
`

// buildCompressed assembles testSrc and rewrites it with the dictionary
// scheme so the run takes decompression exceptions.
func buildCompressed(t *testing.T) *program.Image {
	t.Helper()
	im, err := asm.Assemble(testSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Compress(im, core.Options{Scheme: program.SchemeDict})
	if err != nil {
		t.Fatal(err)
	}
	return res.Image
}

// runCollected runs im with a collector (and any extra setup) attached.
func runCollected(t *testing.T, im *program.Image, col *Collector, setup func(*cpu.CPU)) *cpu.CPU {
	t.Helper()
	c, err := cpu.New(cpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c.Cfg.MaxInstr = 1_000_000
	col.Attach(c)
	if setup != nil {
		setup(c)
	}
	if err := c.Load(im); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCollectorCrossChecks verifies every hook delivered exactly the
// events the always-on counters say happened, and that the report
// carries the commit and branch counts of Stats and the predictor (the
// collector counts neither itself): the collector is a second,
// independently-wired witness of the same run.
func TestCollectorCrossChecks(t *testing.T) {
	col := New()
	col.MaxEvents = DefaultMaxEvents
	c := runCollected(t, buildCompressed(t), col, nil)
	s := c.Stats

	if s.Exceptions == 0 || c.BP.Lookups == 0 || c.BP.Mispredicts == 0 {
		t.Fatal("compressed run took no exceptions or resolved no branches; test is vacuous")
	}
	rep := NewReport(c, col)
	if rep.Instrs != s.Instrs || rep.HandlerInstrs != s.HandlerInstrs || rep.Cycles != s.Cycles {
		t.Errorf("report has %d user + %d handler commits in %d cycles, stats say %d + %d in %d",
			rep.Instrs, rep.HandlerInstrs, rep.Cycles, s.Instrs, s.HandlerInstrs, s.Cycles)
	}
	if rep.Branch.Lookups != c.BP.Lookups || rep.Branch.Mispredicts != c.BP.Mispredicts {
		t.Errorf("report has %d branches, %d mispredicted; predictor says %d, %d",
			rep.Branch.Lookups, rep.Branch.Mispredicts, c.BP.Lookups, c.BP.Mispredicts)
	}
	if rep.Exceptions != s.Exceptions || rep.ExcCyclesMax != s.ExcCyclesMax {
		t.Errorf("report has %d exceptions (max %d cycles), stats say %d (max %d)",
			rep.Exceptions, rep.ExcCyclesMax, s.Exceptions, s.ExcCyclesMax)
	}
	if col.BurstBytes.Sum != c.Mem.BytesRead {
		t.Errorf("bus hook saw %d bytes, memory says %d", col.BurstBytes.Sum, c.Mem.BytesRead)
	}
	if col.BurstBytes.Count != c.Mem.Reads {
		t.Errorf("bus hook saw %d bursts, memory says %d reads", col.BurstBytes.Count, c.Mem.Reads)
	}
	if uint64(len(col.Spans)) != s.Exceptions {
		t.Errorf("%d spans recorded, %d exceptions taken", len(col.Spans), s.Exceptions)
	}
	if col.ExcLatency.Count != s.Exceptions {
		t.Errorf("latency histogram has %d samples, want %d", col.ExcLatency.Count, s.Exceptions)
	}
	if col.ExcLatency.Sum != s.ExcCyclesTotal {
		t.Errorf("latency histogram sum %d, stats total %d", col.ExcLatency.Sum, s.ExcCyclesTotal)
	}
	if col.ExcLatency.Max != s.ExcCyclesMax {
		t.Errorf("latency histogram max %d, stats max %d", col.ExcLatency.Max, s.ExcCyclesMax)
	}
	if col.IC.TotalMisses() != c.IC.Stats.Misses {
		t.Errorf("I-heatmap has %d misses, cache says %d", col.IC.TotalMisses(), c.IC.Stats.Misses)
	}
	if col.DC.TotalMisses() != c.DC.Stats.Misses {
		t.Errorf("D-heatmap has %d misses, cache says %d", col.DC.TotalMisses(), c.DC.Stats.Misses)
	}
	for _, sp := range col.Spans {
		if sp.End <= sp.Start {
			t.Errorf("span %+v is empty or inverted", sp)
		}
	}
}

// TestCollectorCoexistsWithRing is the observer-multiplexing
// regression: a debugging ring on the commit tracer and the collector's
// ledger on the key callouts, attached to the same CPU, must each see
// the whole run — the ring every retirement, the ledger every window.
func TestCollectorCoexistsWithRing(t *testing.T) {
	im := buildCompressed(t)
	col := New()
	col.Windows = NewWindowSampler(7)
	var ring *trace.Ring
	c := runCollected(t, im, col, func(c *cpu.CPU) {
		ring = trace.NewRing(1<<16, im)
		ring.Attach(c)
	})
	total := c.Stats.Instrs + c.Stats.HandlerInstrs
	if ring.Count() != total {
		t.Errorf("ring saw %d commits, want %d", ring.Count(), total)
	}
	if err := col.Windows.Verify(); err != nil {
		t.Errorf("windows beside the ring: %v", err)
	}
	if want := int((total + 6) / 7); len(col.Windows.Records) != want {
		t.Errorf("%d windows of 7 over %d commits, want %d", len(col.Windows.Records), total, want)
	}
	// Mixed-origin entries: the ring must contain both handler and user
	// instructions from a compressed run.
	var user, handler bool
	for _, e := range ring.Entries() {
		if e.Handler {
			handler = true
		} else {
			user = true
		}
	}
	if !user || !handler {
		t.Errorf("ring entries user=%v handler=%v, want both", user, handler)
	}
}

// TestCollectorInstallsNoCommitHooks pins what makes simrun -json run
// the untraced loop: a collector without ledger axes installs neither a
// commit tracer nor a branch hook nor a key observer, and with ledger
// axes only the observer.
func TestCollectorInstallsNoCommitHooks(t *testing.T) {
	for _, axes := range []bool{false, true} {
		c, err := cpu.New(cpu.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		col := New()
		if axes {
			col.Windows = NewWindowSampler(0)
		}
		col.Attach(c)
		if c.Trace != nil || c.BP.OnResolve != nil {
			t.Errorf("axes=%v: collector installed a commit tracer (%v) or a branch hook (%v)",
				axes, c.Trace != nil, c.BP.OnResolve != nil)
		}
		if (c.OnKey != nil) != axes {
			t.Errorf("axes=%v: key observer installed = %v", axes, c.OnKey != nil)
		}
	}
}

// TestCollectorEventCap exercises the bounded event buffers.
func TestCollectorEventCap(t *testing.T) {
	col := New()
	col.MaxEvents = 2
	c := runCollected(t, buildCompressed(t), col, nil)
	if len(col.Spans) > 2 || len(col.Fills) > 2 {
		t.Fatalf("caps ignored: %d spans, %d fills", len(col.Spans), len(col.Fills))
	}
	if c.Stats.Exceptions > 2 && col.DroppedEvents == 0 {
		t.Fatal("events past the cap were not counted as dropped")
	}
	// Histograms must still see everything.
	if col.ExcLatency.Count != c.Stats.Exceptions {
		t.Fatalf("capped collector lost histogram samples: %d vs %d",
			col.ExcLatency.Count, c.Stats.Exceptions)
	}
}

// TestCollectorRecordsNoEventsUnasked: a collector whose MaxEvents is
// left zero (no Chrome trace will be written) records no span or fill
// and counts none as dropped, while its histograms still see every
// event.
func TestCollectorRecordsNoEventsUnasked(t *testing.T) {
	col := New()
	c := runCollected(t, buildCompressed(t), col, nil)
	if len(col.Spans) != 0 || len(col.Fills) != 0 || col.DroppedEvents != 0 {
		t.Fatalf("unasked collector kept %d spans and %d fills, dropped %d",
			len(col.Spans), len(col.Fills), col.DroppedEvents)
	}
	if c.Stats.Exceptions == 0 || col.ExcLatency.Count != c.Stats.Exceptions {
		t.Fatalf("latency histogram has %d samples, %d exceptions taken", col.ExcLatency.Count, c.Stats.Exceptions)
	}
}

// TestChromeTraceExport verifies the exporter emits valid trace-event
// JSON with the spans and fills the run actually took.
func TestChromeTraceExport(t *testing.T) {
	im := buildCompressed(t)
	col := New()
	col.MaxEvents = DefaultMaxEvents
	c := runCollected(t, im, col, nil)

	var buf bytes.Buffer
	if err := col.WriteChromeTrace(&buf, im); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			TS   uint64            `json:"ts"`
			Dur  uint64            `json:"dur"`
			PID  int               `json:"pid"`
			TID  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("exporter produced invalid JSON: %v", err)
	}
	var spans, meta int
	for _, e := range parsed.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
		case "X":
			if e.TID == 1 {
				spans++
				if e.Dur == 0 {
					t.Errorf("zero-duration handler span %q", e.Name)
				}
				if !strings.HasPrefix(e.Name, "decompress ") {
					t.Errorf("span name %q", e.Name)
				}
			}
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	if meta < 3 {
		t.Errorf("%d metadata events, want process + 2 thread names", meta)
	}
	if uint64(spans) != c.Stats.Exceptions {
		t.Errorf("%d handler spans exported, %d exceptions taken", spans, c.Stats.Exceptions)
	}
}

// TestFoldedExport verifies the flamegraph exporter reconstructs the
// main -> work -> leaf stacks and conserves the executed instructions.
func TestFoldedExport(t *testing.T) {
	im, err := asm.Assemble(testSrc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cpu.New(cpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c.Cfg.MaxInstr = 1_000_000
	rec := profile.NewRecorder(im)
	rec.Attach(c)
	if err := c.Load(im); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := WriteFolded(&buf, rec.Profile()); err != nil {
		t.Fatal(err)
	}
	lineRE := regexp.MustCompile(`^[^ ;]+(;[^ ;]+)* \d+$`)
	var total uint64
	stacks := make(map[string]uint64)
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if !lineRE.MatchString(line) {
			t.Fatalf("malformed folded line %q", line)
		}
		i := strings.LastIndexByte(line, ' ')
		n, err := strconv.ParseUint(line[i+1:], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		stacks[line[:i]] = n
		total += n
	}
	for _, want := range []string{"main", "main;work", "main;work;leaf"} {
		if stacks[want] == 0 {
			t.Errorf("missing stack %q in:\n%s", want, buf.String())
		}
	}
	// The call graph is acyclic with single-parent procedures, so the
	// reconstruction must conserve the committed instruction count exactly.
	if execs := c.Stats.Instrs; total != execs {
		t.Errorf("folded counts sum to %d, profile has %d executed instructions", total, execs)
	}
}

// TestReportStableFields pins the machine-readable contract: scripts
// parse these names, so their presence is part of the API.
func TestReportStableFields(t *testing.T) {
	col := New()
	c := runCollected(t, buildCompressed(t), col, nil)
	rep := NewReport(c, col)

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var m map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"cycles", "instrs", "handler_instrs", "cpi", "cpi_stack",
		"exceptions", "imiss_native", "imiss_compressed",
		"exc_cycles_avg", "exc_cycles_max", "fetch_stalls", "load_stalls",
		"load_use_stalls", "branch", "bus", "icache", "dcache",
		"exc_latency", "fill_latency", "burst_bytes", "exit_code",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("report JSON missing stable field %q", key)
		}
	}

	// The exported stack must decompose the cycle total exactly.
	var sum uint64
	for _, comp := range rep.CPIStack {
		sum += comp.Cycles
	}
	if sum != rep.Cycles {
		t.Errorf("cpi_stack sums to %d, cycles = %d", sum, rep.Cycles)
	}

	// CSV rows mirror the same names.
	buf.Reset()
	if err := rep.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	csv := buf.String()
	for _, key := range []string{"cycles,", "cpi_stack.handler_execute,", "exc_cycles_max,"} {
		if !strings.Contains(csv, "\n"+key) {
			t.Errorf("CSV missing row %q:\n%s", key, csv)
		}
	}
	if !strings.Contains(rep.FormatCPIStack(), "handler_execute") {
		t.Error("text CPI stack missing handler component")
	}
}
