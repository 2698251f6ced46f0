package profile

import (
	"fmt"
	"sort"

	"repro/internal/cpu"
	"repro/internal/program"
)

// Ledger is the one attribution engine behind every cost view: the
// Recorder (per I-cache line and per procedure) and
// telemetry.WindowSampler (per window of committed instructions). It is
// a pure observer: attaching one changes no simulated state and no cycle
// count.
//
// Attribution rule: a user commit's delta is charged to the line and
// procedure of its own PC; a handler commit's delta is charged to the
// line and procedure of the *faulting* PC (the EPC, C0 register 4),
// latched when the exception is entered. Because the decompression
// exception's entry flush is charged between commits, every cycle of a
// miss's service ends up on the compressed line that missed, never on
// the handler RAM.
//
// Charging is run-length and rides the machine's key callouts
// (cpu.CPU.OnKey): the detailed loop calls the ledger between two
// commits wherever the next commit's attribution key may differ from
// the last one's, and only when it does differ does the ledger take one
// cpu.Stats + bus delta and add it to the line and procedure of the run
// that just ended. The delta of a run is the sum of its per-commit
// deltas, so every bucket is bit-identical to charging commit by
// commit. The key has four parts:
//
//   - the charged address: the next PC in user code, the latched EPC in
//     the handler (a miss's handler is keyed by the line that missed);
//   - its line and procedure, kept as the one address interval over
//     which both stay fixed. The ledger answers each callout with it,
//     and the machine keeps a line the interval does not cover (one
//     with a procedure boundary inside) off its same-line fast path;
//   - the handler/user phase: iret ends the handler phase, so a run
//     closes at most one exception-service interval and its
//     ExcCyclesTotal delta is that interval's latency — max-merging it
//     reproduces ExcCyclesMax exactly;
//   - the window index, retirements / Size. The ledger answers each
//     callout with the retirement count that closes the open window,
//     and the machine stops there to call it out. A window's record is
//     the difference of the counters at its two ends.
//
// A ledger without the line and procedure axes keys on the window index
// alone.
type Ledger struct {
	c  *cpu.CPU
	im *program.Image // line and procedure axes; nil without them
	w  *Windows       // window axis; nil without it

	committed uint64 // retirements charged so far
	cut       uint64 // retirement count that closes the open window
	// snap[at] holds the whole-run counters at the last flush, the
	// baseline; a flush reads the counters into the other slot and
	// flips at, so no snapshot is ever copied. d is the movement.
	snap   [2]Cost
	at     int
	d      Cost
	opened Cost // whole-run counters when the open window opened
	closed int  // windows closed so far

	// Key of the open run: the phase and the address interval
	// [lo, hi) sharing its line and procedure buckets. The interval is
	// empty before the first callout, so the first callout always keys.
	inHandler bool
	lo, hi    uint64
	lineMask  uint32
	lineAddr  uint32
	line      *Cost
	proc      int

	lines map[uint32]*Cost
	// recent caches lines entries by line index, so a loop over a few
	// lines keys without a map lookup.
	recent [256]struct {
		addr uint32
		cost *Cost
	}
	// procs has one bucket per im.Procs entry, in table order, plus a
	// trailing bucket for commits outside every procedure.
	procs []Cost
}

// Windows is a ledger's time axis: Records holds one Window per Size
// committed instructions (user + handler), the last one possibly
// partial.
type Windows struct {
	// Size is the window length in committed instructions; set it before
	// the ledger is attached.
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
	} else {
		l.hi = cpu.AnyKey.Hi
	}
	return l
}

// Sample adds the window axis: windows of w.Size commits are appended
// to w.Records. Call before Attach.
func (l *Ledger) Sample(w *Windows) { l.w = w }

// Attach binds the ledger to c and installs its callout among c's
// attribution observers. Call before cpu.Load/Run, once per ledger;
// composes with previously attached observers.
func (l *Ledger) Attach(c *cpu.CPU) {
	l.c = c
	l.lineMask = uint32(c.Cfg.ICache.LineBytes) - 1
	l.cut = cpu.AnyKey.Cut
	if l.w != nil && l.w.Size > 0 {
		l.cut = l.w.Size
	}
	c.AttachObserver(l.callout)
}

// callout is the ledger's observer (see cpu.CPU.OnKey). It closes the
// open run when the next commit's key differs from it, or when the
// open window is full, and answers with the interval the key holds
// over and the retirement count that closes the window.
func (l *Ledger) callout() cpu.Key {
	s := &l.c.Stats
	if s.Instrs+s.HandlerInstrs >= l.cut || l.im != nil && l.moved() {
		l.flush()
	}
	return cpu.Key{Lo: l.lo, Hi: l.hi, Cut: l.cut}
}

// moved reports whether the next commit falls outside the open run's key.
func (l *Ledger) moved() bool {
	if l.c.InHandler() {
		return !l.inHandler
	}
	pc := uint64(l.c.PC())
	return l.inHandler || pc < l.lo || pc >= l.hi
}

// flush charges the run that ends at this callout, closes the window
// on rollover and keys the next run.
func (l *Ledger) flush() {
	if l.im != nil && l.line == nil {
		l.rekey() // the first callout: what came before is the first run's
	}
	l.charge()
	if l.committed >= l.cut {
		l.closeWindow()
		l.cut += l.w.Size
	}
	if l.im != nil {
		l.rekey()
	}
}

// rekey opens the run of the next commit: keyed by the next PC in user
// code, by the EPC latched at entry for a whole handler activation.
func (l *Ledger) rekey() {
	if !l.c.InHandler() {
		l.key(l.c.PC(), false)
	} else if !l.inHandler {
		l.key(l.c.C0(4), true)
	}
}

// key opens a run charged to addr's line and procedure.
func (l *Ledger) key(addr uint32, inHandler bool) {
	l.inHandler = inHandler
	la := addr &^ l.lineMask
	if l.line == nil || la != l.lineAddr {
		e := &l.recent[la/(l.lineMask+1)%uint32(len(l.recent))]
		if e.cost == nil || e.addr != la {
			e.addr, e.cost = la, l.lines[la]
			if e.cost == nil {
				e.cost = new(Cost)
				l.lines[la] = e.cost
			}
		}
		l.lineAddr, l.line = la, e.cost
	}
	var plo, phi uint64
	l.proc, plo, phi = l.procSpan(addr)
	l.lo, l.hi = max(uint64(la), plo), min(uint64(la)+uint64(l.lineMask)+1, phi)
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

// charge adds the whole-run counters' movement since the last flush to
// the open run's line and procedure, counts the retirements it charged
// and advances the baseline. Everything goes through pointers into the
// ledger: a flush copies no Cost by value.
func (l *Ledger) charge() {
	now, prev := &l.snap[1-l.at], &l.snap[l.at]
	l.read(now)
	d := &l.d
	d.delta(now, prev)
	l.at = 1 - l.at
	l.committed += d.Instrs + d.HandlerInstrs
	if l.line != nil {
		l.line.add(d)
		l.procs[l.proc].add(d)
	}
}

// closeWindow appends the open window, ending at the last flush: the
// counters' movement since the window opened, with the whole-run
// ExcCyclesMax. Records carry their own bounds, so a reader may take
// records out of Records while the run goes on.
func (l *Ledger) closeWindow() {
	o, p := &l.opened, &l.snap[l.at]
	rec := Window{
		Index:      l.closed,
		StartInstr: o.Instrs + o.HandlerInstrs, EndInstr: p.Instrs + p.HandlerInstrs,
		StartCycle: o.Cycles, EndCycle: p.Cycles,
	}
	rec.Cost.delta(p, o)
	rec.ExcCyclesMax = p.ExcCyclesMax
	l.w.Records = append(l.w.Records, rec)
	l.opened = *p
	l.closed++
}

// Settle charges the commits since the last flush to the open run and
// closes the final partial window, if any. Idempotent; Verify and the
// views' readers call it after the run.
func (l *Ledger) Settle() {
	if l.c == nil {
		return
	}
	l.charge()
	if l.w != nil && l.committed > l.opened.Instrs+l.opened.HandlerInstrs {
		l.closeWindow()
		l.cut = l.committed + l.w.Size
	}
}

// total snapshots the whole-run cost from the machine's own counters.
func (l *Ledger) total() Cost {
	var t Cost
	l.read(&t)
	return t
}

// read fills t from the machine's own counters (not from the
// attribution buckets — Verify compares the two). It is the ledger's
// one stats(sum) site: every axis Verify checks is summed against it,
// and statscomplete proves it reads every cpu.Stats counter, so a new
// counter must be wired into Cost before cccheck passes.
//
//cccheck:stats(sum)
func (l *Ledger) read(t *Cost) {
	s := &l.c.Stats
	t.Cycles = s.Cycles
	t.Instrs = s.Instrs
	t.HandlerInstrs = s.HandlerInstrs
	t.IMissNative = s.IMissNative
	t.IMissCompressed = s.IMissCompressed
	t.Exceptions = s.Exceptions
	t.FetchStalls = s.FetchStalls
	t.LoadStalls = s.LoadStalls
	t.LoadUseStalls = s.LoadUseStalls
	t.ExcCyclesTotal = s.ExcCyclesTotal
	t.ExcCyclesMax = s.ExcCyclesMax
	t.CPIStack = s.CPIStack
	t.BusReads = l.c.Mem.Reads
	t.BusBytes = l.c.Mem.BytesRead
}

// Verify enforces the hard attribution invariant on every axis the
// ledger keeps: the component-wise sum of all line buckets, of all
// procedure buckets and of all window records must each be
// bit-identical to the whole-run cpu.Stats (and bus counters) of the
// attached machine; the windows must tile the commit axis, every one
// but the last exactly Size commits long (the machine stopped at every
// cut); and the ledger must have charged exactly the retirements the
// machine counts. Any drift means a commit escaped attribution or a
// counter moved outside the callouts' view — a simulator bug, never a
// property of the program.
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
		for i, r := range l.w.Records {
			if r.StartInstr != at || r.EndInstr < r.StartInstr {
				return fmt.Errorf("profile: window %d covers commits %d..%d, expected to start at %d",
					r.Index, r.StartInstr, r.EndInstr, at)
			}
			if i < len(l.w.Records)-1 && r.EndInstr-r.StartInstr != l.w.Size {
				return fmt.Errorf("profile: window %d covers %d commits, not %d", r.Index, r.EndInstr-r.StartInstr, l.w.Size)
			}
			at = r.EndInstr
			sum.Add(r.Cost)
		}
		if err := check(fmt.Sprintf("window (%d of %d)", len(l.w.Records), l.w.Size), sum); err != nil {
			return err
		}
		if at != l.committed {
			return fmt.Errorf("profile: windows cover %d commits, ledger charged %d", at, l.committed)
		}
	}
	if retired := total.Instrs + total.HandlerInstrs; l.committed != retired {
		return fmt.Errorf("profile: ledger charged %d retirements, machine retired %d", l.committed, retired)
	}
	return nil
}

// Recorder is the spatial view of a Ledger: per-line and per-procedure
// attribution of one run, materialized by Profile.
type Recorder struct{ *Ledger }

// NewRecorder returns a recorder attributing to im's procedure table.
// Attach it, or hand it to a telemetry Collector, which attaches it and
// lets a Windows sampler share its ledger.
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
