package profile

import (
	"fmt"
	"math"
	"math/bits"
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
// the last one's, and only when it does differ does the ledger charge
// the run that just ended: one pass adds every cpu.Stats and bus
// counter's movement since the last flush to the run's one bucket. The
// movement of a run is the sum of its per-commit deltas, so every
// bucket is bit-identical to charging commit by commit. The key has
// four parts:
//
//   - the charged address: the next PC in user code, the latched EPC in
//     the handler (a miss's handler is keyed by the line that missed);
//   - its interval: the address range [lo, hi) over which both its line
//     and its procedure stay fixed. Each interval has its own bucket.
//     The ledger answers each callout with it, and the machine clips its
//     fetch window to it, so a line with a procedure boundary inside is
//     one window per interval. A fetch that leaves the window for a
//     line that hits calls the ledger out on the machine's fast path;
//   - the handler/user phase: iret ends the handler phase, so a run
//     closes at most one exception-service interval and its
//     ExcCyclesTotal movement is that interval's latency — max-merging
//     it reproduces ExcCyclesMax exactly;
//   - the window index, retirements / Size. The ledger answers each
//     callout with the retirement count that closes the open window,
//     and the machine stops there to call it out. A window's record is
//     the difference of the counters at its two ends.
//
// The intervals of the lines the procedure table spans are fixed at
// Attach, in address order, so keying an address there is a table
// lookup; an address outside them keys a bucket kept by its lo. The
// line and procedure views are built from the interval buckets after
// the run (views): an interval lies in exactly one line and one
// procedure, so counters sum and ExcCyclesMax max-merges exactly. A
// ledger without the line and procedure axes keys on the window index
// alone and charges one bucket.
type Ledger struct {
	c  *cpu.CPU
	im *program.Image // line and procedure axes; nil without them
	w  *Windows       // window axis; nil without it

	cut uint64 // retirement count that closes the open window
	// base holds the whole-run counters at the last flush; charge adds
	// the movement since then to the open run's bucket and advances it.
	base   Cost
	opened Cost // whole-run counters when the open window opened
	closed int  // windows closed so far

	// Key of the open run: the phase and the interval [lo, hi) whose
	// bucket run is. run is nil before the first callout, and the
	// interval empty, so the first callout always keys.
	inHandler bool
	lo, hi    uint64
	run       *Cost
	lineMask  uint32
	lineShift uint
	proc      int // procedure of the last interval keyed

	// spans are the intervals of the lines from tabLo on that the
	// procedure table spans, ascending: interval k is [spans[k].lo,
	// spans[k+1].lo), and the last span only ends the table. tab holds
	// interval k's bucket at k, first the index of each line's first
	// interval. Buckets of the intervals no run reached stay zero.
	tabLo uint32
	first []int32
	spans []span
	tab   []Cost
	// outside holds the buckets of intervals outside the spans, by lo.
	outside map[uint32]*bucket
	// lines and procs are the views built when base stood at viewed.
	lines  []LineCost
	procs  []Cost
	viewed Cost
	// calls is the machine's call counts by [call site, target]
	// (cpu.CPU.CallEdges); views fold them into procedure pairs.
	calls map[[2]uint32]uint64
}

// span is where one interval of the ledger's table starts, and its
// procedure.
type span struct {
	lo   uint32
	proc int32 // index into im.Procs; len(im.Procs) outside the table
}

// bucket is the cost charged to one line ∩ procedure interval outside
// the ledger's table.
type bucket struct {
	lo, hi uint64
	proc   int // index into im.Procs; len(im.Procs) outside the table
	Cost
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
		l.outside = make(map[uint32]*bucket)
	} else {
		l.hi, l.run = cpu.AnyKey.Hi, new(Cost)
	}
	return l
}

// Sample adds the window axis: windows of w.Size commits are appended
// to w.Records. Call before Attach.
func (l *Ledger) Sample(w *Windows) { l.w = w }

// Attach binds the ledger to c and installs its callout among c's
// attribution observers. Call before cpu.Load/Run, once per
// ledger; composes with previously attached observers.
func (l *Ledger) Attach(c *cpu.CPU) {
	l.bind(c)
	c.AttachObserver(l.callout)
}

// bind readies the ledger to observe c.
func (l *Ledger) bind(c *cpu.CPU) {
	l.c = c
	l.lineMask = uint32(c.Cfg.ICache.LineBytes) - 1
	l.lineShift = uint(bits.TrailingZeros32(l.lineMask + 1))
	l.cut = cpu.AnyKey.Cut
	if l.w != nil && l.w.Size > 0 {
		l.cut = l.w.Size
	}
	if l.im != nil {
		l.table()
		l.calls = c.CallEdges()
	}
}

// maxTableLines bounds the lines a ledger's interval table covers (2
// MiB of code in 32-byte lines; cc1, the largest stand-in, spans 8K). A
// procedure table spread wider keys every interval by its lo instead.
const maxTableLines = 1 << 16

// table splits the lines the procedure table spans into their
// intervals, as bucket would find them.
func (l *Ledger) table() {
	ps := l.im.Procs
	if len(ps) == 0 {
		return
	}
	lo := ps[0].Addr &^ l.lineMask
	end := (ps[len(ps)-1].End() + uint64(l.lineMask)) &^ uint64(l.lineMask)
	lines := (end - uint64(lo)) >> l.lineShift
	if end > math.MaxUint32 || lines+2*uint64(len(ps)) > 2*maxTableLines {
		return
	}
	l.tabLo = lo
	l.first = make([]int32, lines)
	for a := uint64(lo); a < end; {
		if a&uint64(l.lineMask) == 0 {
			l.first[(a-uint64(lo))>>l.lineShift] = int32(len(l.spans))
		}
		proc, _, phi := l.procSpan(uint32(a))
		if phi <= a { // a procedure table program.Validate let wrap
			l.first, l.spans = nil, nil
			return
		}
		l.spans = append(l.spans, span{lo: uint32(a), proc: int32(proc)})
		a = min(a&^uint64(l.lineMask)+uint64(l.lineMask)+1, phi)
	}
	l.spans = append(l.spans, span{lo: uint32(end)})
	l.tab = make([]Cost, len(l.spans)-1)
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
	if l.run == nil {
		l.rekey() // the first callout: what came before is the first run's
	}
	l.charge(l.run, &l.base)
	if l.base.Instrs+l.base.HandlerInstrs >= l.cut {
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

// key opens a run charged to the bucket of addr's interval.
func (l *Ledger) key(addr uint32, inHandler bool) {
	l.inHandler = inHandler
	if j := (addr - l.tabLo) >> l.lineShift; addr >= l.tabLo && int(j) < len(l.first) {
		k := l.first[j]
		for l.spans[k+1].lo <= addr {
			k++
		}
		l.lo, l.hi, l.run = uint64(l.spans[k].lo), uint64(l.spans[k+1].lo), &l.tab[k]
		return
	}
	b := l.bucket(addr)
	l.outside[uint32(b.lo)] = b
	l.lo, l.hi, l.run = b.lo, b.hi, &b.Cost
	if uint64(addr) < b.lo || uint64(addr) >= b.hi { // a wrapped procedure table
		l.lo, l.hi = uint64(addr), uint64(addr)+1
	}
}

// bucket returns the bucket of addr's interval outside the table, the
// intersection of its line and its procedure's address range:
// outside's when it has one, else a new one.
func (l *Ledger) bucket(addr uint32) *bucket {
	la := uint64(addr &^ l.lineMask)
	proc, plo, phi := l.procSpan(addr)
	l.proc = proc
	lo := max(la, plo)
	if b := l.outside[uint32(lo)]; b != nil {
		return b
	}
	return &bucket{lo: lo, hi: min(la+uint64(l.lineMask)+1, phi), proc: proc}
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
			return procs[i].End() > uint64(addr)
		})
	}
	if i < len(procs) && procs[i].Contains(addr) {
		return i, uint64(procs[i].Addr), procs[i].End()
	}
	lo, hi := uint64(0), uint64(1)<<32
	if i > 0 {
		lo = procs[i-1].End()
	}
	if i < len(procs) {
		hi = uint64(procs[i].Addr)
	}
	return len(procs), lo, hi
}

// charge is the ledger's one pass over the machine's counters: it adds
// every counter's movement since base to b and advances base to the
// counters. b's ExcCyclesMax max-merges the ExcCyclesTotal movement,
// the latency of the at most one service interval a run closes; base
// keeps the whole-run ExcCyclesMax. It is the ledger's one stats(sum)
// site: every axis Verify checks is summed from it, and statscomplete
// proves it reads every cpu.Stats counter, so a new counter must be
// wired into Cost before cccheck passes.
//
//cccheck:stats(sum)
func (l *Ledger) charge(b, base *Cost) {
	s := &l.c.Stats
	b.Cycles += s.Cycles - base.Cycles
	base.Cycles = s.Cycles
	b.Instrs += s.Instrs - base.Instrs
	base.Instrs = s.Instrs
	b.HandlerInstrs += s.HandlerInstrs - base.HandlerInstrs
	base.HandlerInstrs = s.HandlerInstrs
	b.IMissNative += s.IMissNative - base.IMissNative
	base.IMissNative = s.IMissNative
	b.IMissCompressed += s.IMissCompressed - base.IMissCompressed
	base.IMissCompressed = s.IMissCompressed
	b.Exceptions += s.Exceptions - base.Exceptions
	base.Exceptions = s.Exceptions
	b.FetchStalls += s.FetchStalls - base.FetchStalls
	base.FetchStalls = s.FetchStalls
	b.LoadStalls += s.LoadStalls - base.LoadStalls
	base.LoadStalls = s.LoadStalls
	b.LoadUseStalls += s.LoadUseStalls - base.LoadUseStalls
	base.LoadUseStalls = s.LoadUseStalls
	exc := s.ExcCyclesTotal - base.ExcCyclesTotal
	b.ExcCyclesTotal += exc
	b.ExcCyclesMax = max(b.ExcCyclesMax, exc)
	base.ExcCyclesTotal = s.ExcCyclesTotal
	base.ExcCyclesMax = s.ExcCyclesMax
	for k := range s.CPIStack {
		b.CPIStack[k] += s.CPIStack[k] - base.CPIStack[k]
	}
	base.CPIStack = s.CPIStack
	m := l.c.Mem
	b.BusReads += m.Reads - base.BusReads
	base.BusReads = m.Reads
	b.BusBytes += m.BytesRead - base.BusBytes
	base.BusBytes = m.BytesRead
}

// closeWindow appends the open window, ending at the last flush: the
// counters' movement since the window opened, with the whole-run
// ExcCyclesMax. Records carry their own bounds, so a reader may take
// records out of Records while the run goes on.
func (l *Ledger) closeWindow() {
	o, p := &l.opened, &l.base
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
	run := l.run
	if run == nil {
		run = new(Cost) // no callout yet: no run is keyed to charge
	}
	l.charge(run, &l.base)
	if committed := l.base.Instrs + l.base.HandlerInstrs; l.w != nil && committed > l.opened.Instrs+l.opened.HandlerInstrs {
		l.closeWindow()
		l.cut = committed + l.w.Size
	}
}

// total snapshots the whole-run cost from the machine's own counters,
// not from the buckets (Verify compares the two): the movement from
// zero leaves the baseline at the counters.
func (l *Ledger) total() Cost {
	var t, moved Cost
	l.charge(&moved, &t)
	return t
}

// views returns the line and procedure buckets built from the interval
// buckets: the lines some run reached, ascending by address, and one
// procedure bucket per im.Procs entry plus the trailing outside bucket.
// An interval lies in one line and one procedure, so each view's
// buckets are sums of disjoint sets of runs: counters add, and
// ExcCyclesMax max-merges exactly (Cost.Add). Views built while the
// counters stood where they stand now are reused (Profile after
// Verify); fresh builds them anew whatever.
func (l *Ledger) views(fresh bool) ([]LineCost, []Cost) {
	if !fresh && l.procs != nil && l.viewed == l.base {
		return l.lines, l.procs
	}
	out := make([]*bucket, 0, len(l.outside))
	for _, b := range l.outside {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].lo < out[j].lo })
	n := len(out)
	for k := range l.tab {
		if !l.tab[k].IsZero() {
			n++
		}
	}
	lines := make([]LineCost, 0, n)
	procs := make([]Cost, len(l.im.Procs)+1)
	add := func(lo uint64, proc int, c *Cost) {
		if la := uint32(lo) &^ l.lineMask; len(lines) == 0 || lines[len(lines)-1].Addr != la {
			lines = append(lines, LineCost{Addr: la})
		}
		lines[len(lines)-1].add(c)
		procs[proc].add(c)
	}
	i := 0
	for ; i < len(out) && out[i].lo < uint64(l.tabLo); i++ {
		add(out[i].lo, out[i].proc, &out[i].Cost)
	}
	for k := range l.tab {
		if !l.tab[k].IsZero() {
			add(uint64(l.spans[k].lo), int(l.spans[k].proc), &l.tab[k])
		}
	}
	for ; i < len(out); i++ {
		add(out[i].lo, out[i].proc, &out[i].Cost)
	}
	l.lines, l.procs, l.viewed = lines, procs, l.base
	return lines, procs
}

// Verify enforces the hard attribution invariant on every axis the
// ledger keeps: the component-wise sum of all line buckets, of all
// procedure buckets and of all window records must each be
// bit-identical to the whole-run cpu.Stats (and bus counters) of the
// attached machine, and the windows must tile the commit axis, every
// one but the last exactly Size commits long (the machine stopped at
// every cut). Any drift means a commit escaped attribution or a counter
// moved outside the callouts' view — a simulator bug, never a property
// of the program.
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
		lines, procs := l.views(true)
		var lineSum, procSum Cost
		for i := range lines {
			lineSum.add(&lines[i].Cost)
		}
		for i := range procs {
			procSum.add(&procs[i])
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
		if retired := total.Instrs + total.HandlerInstrs; at != retired {
			return fmt.Errorf("profile: windows cover %d commits, machine retired %d", at, retired)
		}
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
	lines, procs := r.views(false)
	for i := range lines {
		if !lines[i].Cost.IsZero() {
			if p.Lines == nil {
				p.Lines = make([]LineCost, 0, len(lines)-i)
			}
			p.Lines = append(p.Lines, lines[i])
		}
	}
	for i, pr := range r.im.Procs {
		p.Procs = append(p.Procs, ProcCost{Name: pr.Name, Addr: pr.Addr, Cost: procs[i]})
	}
	if out := procs[len(r.im.Procs)]; !out.IsZero() {
		p.Procs = append(p.Procs, ProcCost{Name: OutsideName, Cost: out})
	}
	p.Calls = r.procCalls()
	return p
}

// procCalls folds the machine's call counts into procedure pairs,
// indexed as Profile.Procs; a call from or to an address outside the
// procedure table is left out.
func (r *Recorder) procCalls() map[[2]int]uint64 {
	calls := make(map[[2]int]uint64)
	for k, n := range r.calls {
		from, _, _ := r.procSpan(k[0])
		to, _, _ := r.procSpan(k[1])
		if from < len(r.im.Procs) && to < len(r.im.Procs) {
			calls[[2]int{from, to}] += n
		}
	}
	return calls
}
