package profile

import (
	"fmt"
	"sort"

	"repro/internal/cpu"
	"repro/internal/program"
)

// Ledger is the one attribution engine behind every per-commit cost
// view: the Recorder (per I-cache line and per procedure) and
// telemetry.WindowSampler (per window of committed instructions). It
// owns a single commit hook and is a pure observer: attaching one
// changes no simulated state and no cycle count.
//
// Attribution rule: a user commit's delta is charged to the line and
// procedure of its own PC; a handler commit's delta is charged to the
// line and procedure of the *faulting* PC (the EPC, C0 register 4),
// latched when the exception is entered. Because the decompression
// exception's entry flush is charged between commits, every cycle of a
// miss's service ends up on the compressed line that missed, never on
// the handler RAM.
//
// Charging is run-length. After each commit the ledger computes the
// attribution key of the *next* commit (the CPU fires its tracers once
// the PC has moved on), and only when that key changes does it take one
// cpu.Stats + bus delta, adding it to the line, procedure and window
// accumulators of the run that just ended. The delta of a run is the
// sum of its per-commit deltas, so every bucket is bit-identical to
// charging commit by commit. The key has four parts:
//
//   - the charged address: the next PC in user code, the latched EPC in
//     the handler (a miss's handler is keyed by the line that missed);
//   - its line and procedure, kept as the one address interval over
//     which both stay fixed, so the per-commit test is a subtraction;
//   - the handler/user phase: iret ends the handler phase, so a run
//     closes at most one exception-service interval and its
//     ExcCyclesTotal delta is that interval's latency — max-merging it
//     reproduces ExcCyclesMax exactly (a handler is at least two
//     commits, since it must install the line before its iret);
//   - the window index, committed / Size.
//
// A ledger without the line and procedure axes keys on the window index
// alone and costs one compare per commit.
type Ledger struct {
	c  *cpu.CPU
	im *program.Image // line and procedure axes; nil without them
	w  *Windows       // window axis; nil without it

	committed uint64
	cut       uint64 // commit count that closes the open window
	prev      Cost   // whole-run counters at the last flush

	// Key of the open run: the phase and the address interval
	// [lo, lo+span) sharing its line and procedure buckets. span is 0
	// before the first commit, so the first commit always keys.
	inHandler bool
	lo, span  uint32
	lineMask  uint32
	lineAddr  uint32
	line      *Cost
	proc      int

	lines map[uint32]*Cost
	// procs has one bucket per im.Procs entry, in table order, plus a
	// trailing bucket for commits outside every procedure.
	procs []Cost
	acc   Cost // the open window
}

// Windows is a ledger's time axis: Records holds one Window per Size
// committed instructions (user + handler), the last one possibly
// partial.
type Windows struct {
	// Size is the window length in committed instructions; set it before
	// the ledger is bound.
	Size uint64
	// Records are the closed windows, in execution order; Settle (or
	// Verify) closes the final partial window.
	Records []Window
}

// Window is the Stats delta of one window. Every counter is a delta over
// the window except ExcCyclesMax, which is the running whole-run
// maximum at window close (a maximum has no meaningful delta; the last
// record therefore equals Stats.ExcCyclesMax).
type Window struct {
	Index int `json:"index"`
	// StartInstr/EndInstr bound the window in committed instructions
	// (user + handler): the window covers commits StartInstr+1..EndInstr.
	StartInstr uint64 `json:"start_instr"`
	EndInstr   uint64 `json:"end_instr"`
	// StartCycle/EndCycle bound the window on the cycle axis.
	StartCycle uint64 `json:"start_cycle"`
	EndCycle   uint64 `json:"end_cycle"`
	Cost
}

// NewLedger returns a ledger charging the line and procedure axes of
// im's procedure table, or no spatial axis when im is nil. Add the
// window axis with Sample.
func NewLedger(im *program.Image) *Ledger {
	l := &Ledger{im: im}
	if im != nil {
		l.lines = make(map[uint32]*Cost)
		l.procs = make([]Cost, len(im.Procs)+1)
	}
	return l
}

// Sample adds the window axis: windows of w.Size commits are appended
// to w.Records. Call before Bind.
func (l *Ledger) Sample(w *Windows) { l.w = w }

// Bind points the ledger at a machine without installing a tracer, for
// callers that call Commit from their own commit tracer (the telemetry
// Collector does, so a profiled run pays one indirect call per commit).
// Bind before the first commit.
func (l *Ledger) Bind(c *cpu.CPU) {
	l.c = c
	l.lineMask = uint32(c.Cfg.ICache.LineBytes) - 1
	if l.w != nil {
		l.cut = l.w.Size
	}
}

// Attach binds the ledger to c and hooks Commit into its commit tracer.
// Call before cpu.Load/Run, once per ledger; composes with previously
// attached tracers.
func (l *Ledger) Attach(c *cpu.CPU) {
	l.Bind(c)
	c.AttachTrace(func(pc, instr uint32, handler bool) { l.Commit(pc, handler) })
}

// Commit counts one committed instruction and closes the open run when
// the next commit's key differs. Call once per commit from the CPU's
// commit tracer.
func (l *Ledger) Commit(pc uint32, handler bool) {
	l.committed++
	if l.committed == l.cut || l.im != nil && l.moved() {
		l.flush(pc, handler)
	}
}

// moved reports whether the next commit falls outside the open run's key.
func (l *Ledger) moved() bool {
	if l.c.InHandler() {
		return !l.inHandler
	}
	return l.inHandler || l.c.PC()-l.lo >= l.span
}

// flush charges the run that ends with this commit, closes the window
// on rollover and keys the next run.
func (l *Ledger) flush(pc uint32, handler bool) {
	if l.im != nil && l.line == nil {
		// The first commit: key it by its own charged address.
		if handler {
			pc = l.c.C0(4)
		}
		l.key(pc, handler)
	}
	l.charge(l.delta())
	if l.committed == l.cut {
		l.closeWindow()
		l.cut += l.w.Size
	}
	if l.im == nil {
		return
	}
	if !l.c.InHandler() {
		l.key(l.c.PC(), false)
	} else if !l.inHandler {
		l.key(l.c.C0(4), true) // EPC, latched for the whole activation
	}
}

// key opens a run charged to addr's line and procedure.
func (l *Ledger) key(addr uint32, inHandler bool) {
	l.inHandler = inHandler
	la := addr &^ l.lineMask
	if l.line == nil || la != l.lineAddr {
		lc := l.lines[la]
		if lc == nil {
			lc = new(Cost)
			l.lines[la] = lc
		}
		l.lineAddr, l.line = la, lc
	}
	lo, hi := uint64(la), uint64(la)+uint64(l.lineMask)+1
	var plo, phi uint64
	l.proc, plo, phi = l.procSpan(addr)
	lo, hi = max(lo, plo), min(hi, phi)
	l.lo, l.span = uint32(lo), uint32(hi-lo)
}

// procSpan maps addr to its procedure bucket (len(im.Procs) for
// addresses outside the table) and the address range [lo, hi) that maps
// to the same bucket (im.Procs is ascending and non-overlapping, as
// program.Validate requires). The last hit is checked first: runs
// cluster inside one procedure.
func (l *Ledger) procSpan(addr uint32) (int, uint64, uint64) {
	procs := l.im.Procs
	i := l.proc
	if i >= len(procs) || !procs[i].Contains(addr) {
		i = sort.Search(len(procs), func(i int) bool {
			return procs[i].Addr+procs[i].Size > addr
		})
	}
	if i < len(procs) && procs[i].Contains(addr) {
		return i, uint64(procs[i].Addr), uint64(procs[i].Addr) + uint64(procs[i].Size)
	}
	lo, hi := uint64(0), uint64(1)<<32
	if i > 0 {
		lo = uint64(procs[i-1].Addr) + uint64(procs[i-1].Size)
	}
	if i < len(procs) {
		hi = uint64(procs[i].Addr)
	}
	return len(procs), lo, hi
}

// delta returns the whole-run counters' change since the last flush and
// advances the baseline: the one delta routine behind every axis. Its
// ExcCyclesMax is the run's ExcCyclesTotal, the latency of the at most
// one service interval the run closed.
func (l *Ledger) delta() Cost {
	now := l.total()
	p := &l.prev
	d := Cost{
		Cycles:          now.Cycles - p.Cycles,
		Instrs:          now.Instrs - p.Instrs,
		HandlerInstrs:   now.HandlerInstrs - p.HandlerInstrs,
		IMissNative:     now.IMissNative - p.IMissNative,
		IMissCompressed: now.IMissCompressed - p.IMissCompressed,
		Exceptions:      now.Exceptions - p.Exceptions,
		FetchStalls:     now.FetchStalls - p.FetchStalls,
		LoadStalls:      now.LoadStalls - p.LoadStalls,
		LoadUseStalls:   now.LoadUseStalls - p.LoadUseStalls,
		ExcCyclesTotal:  now.ExcCyclesTotal - p.ExcCyclesTotal,
		BusReads:        now.BusReads - p.BusReads,
		BusBytes:        now.BusBytes - p.BusBytes,
	}
	for k := range d.CPIStack {
		d.CPIStack[k] = now.CPIStack[k] - p.CPIStack[k]
	}
	d.ExcCyclesMax = d.ExcCyclesTotal
	l.prev = now
	return d
}

// charge adds a run's delta to its line, procedure and window.
func (l *Ledger) charge(d Cost) {
	if l.line != nil {
		l.line.Add(d)
		l.procs[l.proc].Add(d)
	}
	if l.w != nil {
		l.acc.Add(d)
	}
}

// closeWindow appends the open window, ending at the last flush. It
// starts where the last record ended, so a reader may take all but the
// last record out of Records while the run goes on.
func (l *Ledger) closeWindow() {
	rec := Window{Cost: l.acc}
	if n := len(l.w.Records); n > 0 {
		last := &l.w.Records[n-1]
		rec.Index, rec.StartInstr, rec.StartCycle = last.Index+1, last.EndInstr, last.EndCycle
	}
	rec.EndInstr, rec.EndCycle = l.prev.Instrs+l.prev.HandlerInstrs, l.prev.Cycles
	rec.ExcCyclesMax = l.prev.ExcCyclesMax
	l.w.Records = append(l.w.Records, rec)
	l.acc = Cost{}
}

// Settle charges the commits since the last flush to the open run and
// closes the final partial window, if any. Idempotent; Verify and the
// views' readers call it after the run.
func (l *Ledger) Settle() {
	if l.c == nil {
		return
	}
	l.charge(l.delta())
	if l.w != nil && l.committed+l.w.Size > l.cut {
		l.closeWindow()
		l.cut = l.committed + l.w.Size
	}
}

// total snapshots the whole-run cost from the machine's own counters
// (not from the attribution buckets — Verify compares the two). It is
// the ledger's one stats(sum) site: every axis Verify checks is summed
// against this snapshot, and statscomplete proves it reads every
// cpu.Stats counter, so a new counter must be wired into Cost before
// cccheck passes.
//
//cccheck:stats(sum)
func (l *Ledger) total() Cost {
	s := &l.c.Stats
	return Cost{
		Cycles:          s.Cycles,
		Instrs:          s.Instrs,
		HandlerInstrs:   s.HandlerInstrs,
		IMissNative:     s.IMissNative,
		IMissCompressed: s.IMissCompressed,
		Exceptions:      s.Exceptions,
		FetchStalls:     s.FetchStalls,
		LoadStalls:      s.LoadStalls,
		LoadUseStalls:   s.LoadUseStalls,
		ExcCyclesTotal:  s.ExcCyclesTotal,
		ExcCyclesMax:    s.ExcCyclesMax,
		CPIStack:        s.CPIStack,
		BusReads:        l.c.Mem.Reads,
		BusBytes:        l.c.Mem.BytesRead,
	}
}

// Verify enforces the hard attribution invariant on every axis the
// ledger keeps: the component-wise sum of all line buckets, of all
// procedure buckets and of all window records must each be
// bit-identical to the whole-run cpu.Stats (and bus counters) of the
// attached machine; the windows must tile the commit axis; and the hook
// must have seen exactly the commits the machine retired. Any drift
// means a commit escaped attribution or a counter moved outside the
// commit hook's view — a simulator bug, never a property of the
// program.
func (l *Ledger) Verify() error {
	if l.c == nil {
		return fmt.Errorf("profile: ledger never attached")
	}
	l.Settle()
	total := l.total()
	check := func(axis string, sum Cost) error {
		if name, got, want := drift(sum, total); name != "" {
			return fmt.Errorf("profile: attribution invariant: %s: %s buckets sum to %d, whole run has %d (diff %+d)",
				name, axis, got, want, int64(got)-int64(want))
		}
		return nil
	}
	if l.im != nil {
		var lineSum, procSum Cost
		for _, lc := range l.lines {
			lineSum.Add(*lc)
		}
		for i := range l.procs {
			procSum.Add(l.procs[i])
		}
		if err := check("line", lineSum); err != nil {
			return err
		}
		if err := check("procedure", procSum); err != nil {
			return err
		}
	}
	if l.w != nil {
		// Running maxima merge by max, so the window sum's ExcCyclesMax
		// is the last record's.
		var sum Cost
		var at uint64
		for _, r := range l.w.Records {
			if r.StartInstr != at || r.EndInstr < r.StartInstr {
				return fmt.Errorf("profile: window %d covers commits %d..%d, expected to start at %d",
					r.Index, r.StartInstr, r.EndInstr, at)
			}
			at = r.EndInstr
			sum.Add(r.Cost)
		}
		if err := check(fmt.Sprintf("window (%d of %d)", len(l.w.Records), l.w.Size), sum); err != nil {
			return err
		}
		if at != l.committed {
			return fmt.Errorf("profile: windows cover %d commits, ledger saw %d", at, l.committed)
		}
	}
	if retired := total.Instrs + total.HandlerInstrs; l.committed != retired {
		return fmt.Errorf("profile: ledger saw %d commits, machine retired %d", l.committed, retired)
	}
	return nil
}

// Recorder is the spatial view of a Ledger: per-line and per-procedure
// attribution of one run, materialized by Profile.
type Recorder struct{ *Ledger }

// NewRecorder returns a recorder attributing to im's procedure table.
// Attach it, or hand it to a telemetry Collector to share the
// collector's commit hook.
func NewRecorder(im *program.Image) *Recorder { return &Recorder{NewLedger(im)} }

// Profile materializes the attribution into the serializable artifact:
// nonzero lines ascending by address, the full procedure table in
// address order (plus the outside bucket when nonzero), and the
// whole-run total. Caller stamps identity/manifest.
func (r *Recorder) Profile() *Profile {
	r.Settle()
	p := &Profile{
		SchemaVersion: ArtifactSchema,
		LineBytes:     int(r.lineMask) + 1,
		Total:         r.total(),
	}
	addrs := make([]uint32, 0, len(r.lines))
	for a := range r.lines {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		if c := *r.lines[a]; !c.IsZero() {
			p.Lines = append(p.Lines, LineCost{Addr: a, Cost: c})
		}
	}
	for i, pr := range r.im.Procs {
		p.Procs = append(p.Procs, ProcCost{Name: pr.Name, Addr: pr.Addr, Cost: r.procs[i]})
	}
	if out := r.procs[len(r.im.Procs)]; !out.IsZero() {
		p.Procs = append(p.Procs, ProcCost{Name: OutsideName, Cost: out})
	}
	return p
}
