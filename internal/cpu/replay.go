package cpu

// Handler-activation replay.
//
// A decompression-handler activation that stores nothing but swic and
// reads no register before writing it is a pure function of its entry
// state: the system registers (BADVA among them), the memory it loads
// from and the handler code. The detailed policy records the first
// such activation at each BADVA: the D-cache loads, branch outcomes
// and swic stores it makes, in order; the charges no machine state
// changes (static totals); and its exit state. A later activation at
// the same BADVA, entered with the same system registers, skips the
// interpreter and applies the recording's effect, adding the static
// totals in one step.
//
// On its first use a recording is compiled (walk) into one stream per
// hardware unit. The units share no state, so the streams are applied
// one after the other; within a stream the recorded order holds:
//   - the predictor: one bpred.Transfer per counter the branches index,
//     which gives the end state and mispredicts from each start state;
//   - the D-cache: runs of loads to one line, the first of each an
//     access (and, on a miss, its fill and bus burst), the rest hits;
//   - the I-cache: runs of swic stores to one line, one tag search each;
//     a run that writes every word of its line keeps the line's
//     predecoded records, which replay installs with the derived bit,
//     so the fetch after the activation does not decode it again.
// Every state change and charge is the interpreter's own, down to the
// caches' LRU stamps, the predictor's counters, the bus counters and
// the cache and burst observers' events; only the host work differs.
//
// Both eligibility checks are made on the recorded run itself, so no
// annotation is trusted: walk follows the handler code along the
// recorded branch outcomes and refuses an activation that stores,
// jumps through a register, divides, traps, or reads a register (hi
// and lo included) it has not written. A recording stays valid while
// its inputs do: a store into handler RAM or into the words any
// recording loaded from drops them all (fstoreData), entry compares
// every system register (so an mtc0 anywhere re-records), and Load,
// RestoreState and a changed Config start afresh.
//
// Replay runs only in run's slow path, where fetch raised the
// exception, and only where the interpreted activation would run
// through its iret in one stretch: not under a Trace, a
// predictor observer (BP.OnResolve, which wants every branch),
// PredecodeCheck or DisablePredecode, and not when the budget or the
// observers' cut falls inside the activation. Config.ReplayCheck
// re-interprets every activation and compares it with its recording,
// whose events it keeps for that; otherwise they are dropped once
// compiled.

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/bpred"
)

// Event tags, in the low two bits of an event word: load and swic
// addresses are word-aligned (a load's D-cache line holds its whole
// word) and branch PCs are, so the tag costs no width. A swic event's
// next word is the value stored.
const (
	evLoad     = 0
	evNotTaken = 1
	evTaken    = 2
	evSwic     = 3
)

// recording is one handler activation, keyed by its entry c0.
type recording struct {
	c0In   [8]uint32 // system registers at entry, BADVA among them
	events []uint32  // nil once compiled, unless ReplayCheck wants them
	n      uint64    // instructions, the iret included
	static Stats     // charges no machine state changes
	walked bool      // eligibility checked (walk), wrote and hiLo set
	stored bool      // the activation made a data store

	// The compiled streams (walk). A swic run is a header, its word
	// count times two plus one if it keeps its line's records, then
	// (address, word) pairs; recs holds the kept records, wpl per run.
	bp    []bpred.Transfer
	loads []loadRun
	swic  []uint32
	recs  []pinstr

	// Exit state: the activation's register bank (replay restores the
	// registers in wrote), hi and lo (restored if hiLo) and c0 after the
	// iret.
	wrote  uint32
	regs   [32]uint32
	hiLo   bool
	hi, lo uint32
	c0Out  [8]uint32
}

// loadRun is n loads in a row to the D-cache line of addr.
type loadRun struct{ addr, n uint32 }

// ineligible stands in the cache for every activation found not
// replayable, so its BADVA is not recorded again. It keeps no entry
// state: a BADVA's activation may become eligible when c0 changes, and
// interpreting it is never wrong.
var ineligible recording

// recordings is the per-CPU replay cache; never serialised.
type recordings struct {
	byBadva map[uint32]*recording
	open    *recording // the activation being recorded, nil when none
	buf     recording  // open's storage, reused
	entry   Stats      // Stats when open was entered
	bank    int        // open's register bank
	cfg     Config     // the configuration the recordings were made under (MaxInstr zeroed)
	// [lo, lo+span) covers every word a recording loaded from.
	lo, span uint32
	steps    []walkStep // walk's view of handler RAM, built on first use
	replays  uint64     // activations replayed, or checked under ReplayCheck

	// The streams walk compiles, and their storage. grp maps a counter
	// to its Transfer's place in bp.s, where it is current only if the
	// Transfer there indexes that counter.
	bp    arena[bpred.Transfer]
	loads arena[loadRun]
	swic  arena[uint32]
	recs  arena[pinstr]
	grp   []uint32
}

// arena collects one stream of the recording being compiled in s, and
// keeps each finished stream in a block it shares with other streams,
// so compiling allocates no small objects and a kept stream has no
// spare capacity.
type arena[T any] struct {
	s    []T
	free []T // the current block's unused tail
}

// keep moves the collected stream into a block and returns it there.
func (a *arena[T]) keep() []T {
	n := len(a.s)
	if n > len(a.free) {
		a.free = make([]T, max(n, 1024))
	}
	d := a.free[:n:n]
	copy(d, a.s)
	a.free, a.s = a.free[n:], a.s[:0]
	return d
}

// dropRecordings forgets every recording, the open one included.
func (c *CPU) dropRecordings() {
	c.rp.byBadva, c.rp.open, c.rp.steps = nil, nil, nil
	c.rp.lo, c.rp.span = 0, 0
}

// enterActivation is called by run at a detailed-policy exception
// entry it may replay (see the file comment for when). It returns the
// recording to replay, or nil; then it opens a recording of the
// activation if none matches its entry (or, under ReplayCheck, one to
// compare with the match).
func (c *CPU) enterActivation(left int64) *recording {
	if c.hdec == nil || c.BP.OnResolve != nil {
		return nil
	}
	cfg := c.Cfg
	cfg.MaxInstr = 0
	if cfg != c.rp.cfg {
		c.dropRecordings()
		c.rp.cfg = cfg
	}
	rec := c.rp.byBadva[c.c0[5]]
	if rec == &ineligible {
		return nil
	}
	if rec != nil && rec.c0In == c.c0 {
		if !rec.walked && !c.walk(rec) {
			return nil
		}
		if !c.Cfg.ReplayCheck && !c.Cfg.PredecodeCheck && c.limit(left, 0, true, detailed) >= rec.n {
			return rec
		}
		if !c.Cfg.ReplayCheck {
			return nil
		}
	}
	c.rp.buf.c0In, c.rp.buf.stored = c.c0, false
	c.rp.buf.events = c.rp.buf.events[:0]
	c.rp.open, c.rp.entry, c.rp.bank = &c.rp.buf, c.Stats, c.bank
	return nil
}

// replay applies rec's compiled streams as the interpreter would run
// the activation from exception entry through the iret, and returns
// the budget moved on by its length. The caller closes the exception
// interval.
func (c *CPU) replay(rec *recording, left int64) int64 {
	var dyn, miss uint64
	for i, r := range rec.loads {
		n := uint64(r.n)
		if i == 0 && c.Cfg.ReplayBreak {
			n--
		}
		if n == 0 {
			continue
		}
		s := c.DC.Lookup(r.addr)
		if s < 0 {
			dyn += c.dMiss(r.addr, detailed)
		}
		if n > 1 {
			if s < 0 {
				s = c.DC.Slot(r.addr)
			}
			c.DC.Hits(s, n-1)
		}
	}
	for i := range rec.bp {
		miss += c.BP.Apply(&rec.bp[i])
	}
	sw, recs := rec.swic, rec.recs
	for i := 0; i < len(sw); {
		h := int(sw[i])
		s := c.IC.WriteLine(sw[i+1 : i+1+h&^1])
		if h&1 != 0 {
			copy(c.pcode[s*c.wpl:(s+1)*c.wpl], recs)
			c.IC.SetDerived(s)
			recs = recs[c.wpl:]
		}
		i += 1 + h&^1
	}
	miss *= uint64(c.Cfg.MispredictPenalty)
	c.Stats.CPIStack[CycleBranch] += miss
	c.Stats.Cycles += dyn + miss
	addStats(&c.Stats, &rec.static)
	r := &c.regs[c.bank]
	for w := rec.wrote; w != 0; w &= w - 1 {
		i := bits.TrailingZeros32(w)
		r[i] = rec.regs[i]
	}
	if rec.hiLo {
		c.hi, c.lo = rec.hi, rec.lo
	}
	c.c0 = rec.c0Out
	c.inHandler = false
	c.bank = c.savedBank
	c.pc, c.lastLoad = rec.c0Out[4], -1
	c.rp.replays++
	return left - int64(rec.n)
}

// addStats adds a recording's static totals to acc.
//
//cccheck:stats(sum)
func addStats(acc *Stats, d *Stats) {
	acc.Cycles += d.Cycles
	acc.Instrs += d.Instrs
	acc.HandlerInstrs += d.HandlerInstrs
	acc.IMissNative += d.IMissNative
	acc.IMissCompressed += d.IMissCompressed
	acc.Exceptions += d.Exceptions
	acc.LoadStalls += d.LoadStalls
	acc.FetchStalls += d.FetchStalls
	acc.LoadUseStalls += d.LoadUseStalls
	acc.ExcCyclesTotal += d.ExcCyclesTotal
	acc.ExcCyclesMax = max(acc.ExcCyclesMax, d.ExcCyclesMax)
	for k := range acc.CPIStack {
		acc.CPIStack[k] += d.CPIStack[k]
	}
}

// recordLoad, recordBranch and recordSwic append the open recording's
// events; run's hooks call them only while one is open.
func (r *recording) recordLoad(addr uint32) { r.events = append(r.events, addr&^3|evLoad) }

func (r *recording) recordBranch(pc uint32, taken bool) {
	t := uint32(evNotTaken)
	if taken {
		t = evTaken
	}
	r.events = append(r.events, pc|t)
}

func (r *recording) recordSwic(addr, v uint32) { r.events = append(r.events, addr|evSwic, v) }

// closeRecording ends the open recording at its iret, with Stats
// flushed through it, and stores it under its BADVA (or, under
// ReplayCheck, compares it with the one stored there). An activation
// that stored or moved other counters is stored as ineligible; the
// rest of the eligibility check (walk) waits for the recording's first
// use, except under ReplayCheck, which compares exit state by the
// registers written.
func (c *CPU) closeRecording() error {
	rec := c.rp.open
	c.rp.open = nil
	e := &c.rp.entry
	s := &rec.static
	*s = Stats{}
	s.HandlerInstrs = c.Stats.HandlerInstrs - e.HandlerInstrs
	s.LoadUseStalls = c.Stats.LoadUseStalls - e.LoadUseStalls
	for k := range s.CPIStack {
		s.CPIStack[k] = c.Stats.CPIStack[k] - e.CPIStack[k]
	}
	// D-cache stalls and mispredicts depend on machine state, so replay
	// charges them afresh; a recorded activation has no jr, so every
	// branch-penalty cycle is a mispredict.
	loadStalls := c.Stats.LoadStalls - e.LoadStalls
	s.Cycles = c.Stats.Cycles - e.Cycles - loadStalls - s.CPIStack[CycleBranch]
	s.CPIStack[CycleLoadStall], s.CPIStack[CycleBranch] = 0, 0
	// Nothing else may have moved.
	probe := c.Stats
	probe.Cycles, probe.HandlerInstrs, probe.LoadUseStalls, probe.LoadStalls, probe.CPIStack =
		e.Cycles, e.HandlerInstrs, e.LoadUseStalls, e.LoadStalls, e.CPIStack
	rec.n, rec.walked = s.HandlerInstrs, false
	rec.regs, rec.hi, rec.lo, rec.c0Out = c.regs[c.rp.bank], c.hi, c.lo, c.c0
	badva := rec.c0In[5]
	if probe != *e || rec.stored || c.Cfg.ReplayCheck && !c.walk(rec) {
		rec.n = 0
	}
	if old := c.rp.byBadva[badva]; old != nil && old.c0In == rec.c0In {
		if diff := old.diff(rec); diff != "" {
			return fmt.Errorf("cpu: replay check: activation for %#x differs from its recording: %s", badva, diff)
		}
		c.rp.replays++
		return nil
	}
	if c.rp.byBadva == nil {
		c.rp.byBadva = make(map[uint32]*recording)
	}
	if rec.n == 0 {
		c.rp.byBadva[badva] = &ineligible
		return nil
	}
	keep := *rec
	keep.events = slices.Clone(rec.events)
	c.extend(rec.events)
	c.rp.byBadva[badva] = &keep
	return nil
}

// extend grows the loaded-from extent by events' loads.
func (c *CPU) extend(events []uint32) {
	lo, hi := c.rp.lo, c.rp.lo+c.rp.span
	for i := 0; i < len(events); i++ {
		e := events[i]
		switch e & 3 {
		case evSwic:
			i++
		case evLoad:
			if lo == hi {
				lo, hi = e, e+4
			}
			lo, hi = min(lo, e), max(hi, e+4)
		}
	}
	c.rp.lo, c.rp.span = lo, hi-lo
}

// walk follows the handler code from its entry along rec's branch
// outcomes for the recorded instruction count, and keeps rec replayable
// only if the activation stays in handler RAM, ends at its iret,
// consumes every event in order, and executes only instructions whose
// effect the recording captures, reading only registers it wrote. It
// sets rec's written-register set and, outside ReplayCheck, compiles
// its events into the arenas' streams and drops them. It reports
// whether rec stays; one that does not gives its place in the cache to
// ineligible. The handler code is the recorded run's: a store into
// handler RAM drops every recording.
func (c *CPU) walk(rec *recording) bool {
	rec.walked = true
	rp := &c.rp
	compile := !c.Cfg.ReplayCheck
	if compile && len(rp.grp) != c.BP.Entries() {
		rp.grp = make([]uint32, c.BP.Entries())
	}
	rp.bp.s, rp.loads.s, rp.swic.s, rp.recs.s = rp.bp.s[:0], rp.loads.s[:0], rp.swic.s[:0], rp.recs.s[:0]
	if c.eligible(rec, compile) {
		if compile {
			rec.bp, rec.loads, rec.swic, rec.recs = rp.bp.keep(), rp.loads.keep(), rp.swic.keep(), rp.recs.keep()
			rec.events = nil
		}
		return true
	}
	if rp.byBadva[rec.c0In[5]] == rec {
		rp.byBadva[rec.c0In[5]] = &ineligible
	}
	return false
}

// eligible is walk's check and, if compile, its compilation: each
// branch is added to its counter's Transfer, each load extends the
// last load run or starts one, and each swic extends the open swic run
// or closes it (keep) and starts one.
func (c *CPU) eligible(rec *recording, compile bool) bool {
	rp := &c.rp
	if rp.steps == nil {
		rp.steps = walkSteps(c.hdec)
	}
	n, ev, steps := rec.n, rec.events, rp.steps
	if n > math.MaxUint32 { // the streams count in 32 bits
		return false
	}
	bp, loads, sw, run := &rp.bp.s, &rp.loads.s, &rp.swic.s, -1
	dShift := bits.TrailingZeros32(uint32(c.Cfg.DCache.LineBytes))
	iShift := bits.TrailingZeros32(uint32(c.Cfg.ICache.LineBytes))
	wrote := uint32(0)
	last := uint8(wsRefuse)
	pc := c.handlerPC
	for i := uint64(0); i < n; {
		off := (pc - c.handlerPC) >> 2
		if pc&3 != 0 || off >= uint32(len(steps)) {
			return false
		}
		st := steps[off]
		if st.reads&^wrote != 0 || uint64(st.n) > n-i { // or the activation ends before the step's last instruction
			return false
		}
		wrote |= st.writes
		i += uint64(st.n)
		off += st.n - 1 // the step's last instruction
		pc += 4 * (st.n - 1)
		next := pc + 4
		switch st.kind {
		case wsJump:
			next = c.hdec[off].imm
		case wsBranch:
			if len(ev) == 0 || ev[0]&3 == evLoad || ev[0]&3 == evSwic || ev[0]&^3 != pc {
				return false
			}
			taken := ev[0]&3 == evTaken
			if taken {
				next = c.hdec[off].imm
			}
			if compile {
				t := c.BP.Transfer(pc)
				g := rp.grp[t.Index()]
				if int(g) >= len(*bp) || (*bp)[g].Index() != t.Index() {
					g = uint32(len(*bp))
					rp.grp[t.Index()] = g
					*bp = append(*bp, t)
				}
				(*bp)[g].Add(taken)
			}
			ev = ev[1:]
		case wsLoad:
			if len(ev) == 0 || ev[0]&3 != evLoad {
				return false
			}
			if k := len(*loads) - 1; compile && k >= 0 && (*loads)[k].addr>>dShift == ev[0]>>dShift {
				(*loads)[k].n++
			} else if compile {
				*loads = append(*loads, loadRun{ev[0], 1})
			}
			ev = ev[1:]
		case wsSwic:
			if len(ev) < 2 || ev[0]&3 != evSwic {
				return false
			}
			if a := ev[0] &^ 3; compile {
				if run < 0 || (*sw)[run+1]>>iShift != a>>iShift {
					c.keepLine(run)
					run = len(*sw)
					*sw = append(*sw, 0)
				}
				*sw = append(*sw, a, ev[1])
				(*sw)[run] += 2
			}
			ev = ev[2:]
		case wsIret:
			if i != n {
				return false
			}
		default:
			return false
		}
		pc, last = next, st.kind
	}
	rec.wrote = wrote &^ 1
	rec.hiLo = wrote&1 != 0
	if compile {
		c.keepLine(run)
	}
	return last == wsIret && len(ev) == 0
}

// keepLine closes the swic run whose header is at run (none if
// negative): a run that writes every word of its line keeps the line's
// predecoded records, decoded from the words it leaves there.
func (c *CPU) keepLine(run int) {
	if run < 0 || c.wpl > 64 {
		return
	}
	sw, recs := c.rp.swic.s, &c.rp.recs.s
	w := sw[run+1 : run+1+int(sw[run])]
	var have uint64
	for i := 0; i < len(w); i += 2 {
		have |= 1 << (w[i] >> 2 & uint32(c.wpl-1))
	}
	if have != 1<<c.wpl-1 {
		return
	}
	base := w[0] &^ uint32(4*c.wpl-1)
	k := len(*recs)
	*recs = slices.Grow(*recs, c.wpl)[:k+c.wpl]
	for i := 0; i < len(w); i += 2 {
		j := w[i] >> 2 & uint32(c.wpl-1)
		(*recs)[k+int(j)] = decodeInstr(base+4*j, w[i+1])
	}
	sw[run] |= 1
}

// walkStep is what walk needs of the n instructions from a handler
// word through the first one that is not plain: the registers they
// read before writing them and all they write, bit 0 standing for
// hi/lo ($zero reads are free and its writes are dropped), and how the
// last of them moves the walk on.
type walkStep struct {
	reads, writes uint32
	n             uint32
	kind          uint8
}

// walkSteps is walk's view of the handler code in hdec: a plain
// instruction is folded into the step of the word after it, and one in
// the last word, after which the walk would leave handler RAM, refuses.
func walkSteps(hdec []pinstr) []walkStep {
	steps := make([]walkStep, len(hdec))
	for i := len(hdec) - 1; i >= 0; i-- {
		st := walkStepOf(&hdec[i])
		st.n = 1
		if st.kind == wsPlain && i+1 < len(steps) {
			nx := steps[i+1]
			st.reads |= nx.reads &^ st.writes
			st.writes |= nx.writes
			st.n += nx.n
			st.kind = nx.kind
		} else if st.kind == wsPlain {
			st.kind = wsRefuse
		}
		steps[i] = st
	}
	return steps
}

// walkStep kinds.
const (
	wsPlain  = iota
	wsJump   // j, jal
	wsBranch // a conditional branch: one branch event
	wsLoad   // one load event
	wsSwic   // one swic event
	wsIret
	wsRefuse // stores, jr/jalr, div/divu, syscall, break, illegal
)

func walkStepOf(p *pinstr) walkStep {
	reg := func(r uint8) uint32 { return 1 << r &^ 1 }
	st := walkStep{kind: wsPlain}
	if p.srcA > 0 {
		st.reads |= 1 << p.srcA
	}
	if p.srcB > 0 {
		st.reads |= 1 << p.srcB
	}
	switch p.op {
	case pSLL, pSRL, pSRA, pSLLV, pSRLV, pSRAV, pADD, pSUB, pAND, pOR, pXOR, pNOR, pSLT, pSLTU:
		st.writes = reg(p.rd)
	case pMFHI, pMFLO:
		st.reads |= 1
		st.writes = reg(p.rd)
	case pMULT, pMULTU:
		st.writes = 1
	case pADDI, pSLTI, pSLTIU, pANDI, pORI, pXORI, pLUI, pMFC0:
		st.writes = reg(p.rt)
	case pMTC0:
	case pJ:
		st.kind = wsJump
	case pJAL:
		st.kind, st.writes = wsJump, reg(31)
	case pBLTZ, pBGEZ, pBEQ, pBNE, pBLEZ, pBGTZ:
		st.kind = wsBranch
	case pLB, pLBU, pLH, pLHU, pLW:
		st.kind, st.writes = wsLoad, reg(p.rt)
	case pSWIC:
		st.kind = wsSwic
	case pIRET:
		st.kind = wsIret
	default:
		st.kind = wsRefuse
	}
	return st
}

// diff describes how o, a fresh recording of rec's activation, differs
// from rec ("" when it does not).
func (rec *recording) diff(o *recording) string {
	switch {
	case rec.n != o.n:
		return fmt.Sprintf("%d replayable instructions, recorded %d", o.n, rec.n)
	case rec.static != o.static:
		return fmt.Sprintf("static totals %+v, recorded %+v", o.static, rec.static)
	case !slices.Equal(rec.events, o.events):
		i := 0
		for i < len(rec.events) && i < len(o.events) && rec.events[i] == o.events[i] {
			i++
		}
		return fmt.Sprintf("event %d of %d differs (recorded %d)", i, len(o.events), len(rec.events))
	case rec.wrote != o.wrote || rec.hiLo != o.hiLo || rec.hiLo && (rec.hi != o.hi || rec.lo != o.lo) ||
		rec.c0Out != o.c0Out:
		return "exit state differs"
	}
	for w := rec.wrote; w != 0; w &= w - 1 {
		if i := bits.TrailingZeros32(w); rec.regs[i] != o.regs[i] {
			return fmt.Sprintf("exit value of register %d differs", i)
		}
	}
	return ""
}
