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
// interpreter: replay sends each event through the real D-cache (and
// bus), predictor and I-cache, so every state change and every
// state-dependent charge is the interpreter's own, and adds the static
// totals in one step. Only the execute work is skipped.
//
// Both eligibility checks are made on the recorded run itself, so no
// annotation is trusted: closeRecording walks the handler code along
// the recorded branch outcomes and refuses an activation that stores,
// jumps through a register, divides, traps, or reads a register (hi
// and lo included) it has not written. A recording stays valid while
// its inputs do: a store into handler RAM or into the words any
// recording loaded from drops them all (fstoreData), entry compares
// every system register (so an mtc0 anywhere re-records), and Load,
// RestoreState and a changed Config start afresh.
//
// Replay runs only in run's slow path, where fetch raised the
// exception, and only where the interpreted activation would run
// through its iret in one stretch: not under runStep, a Trace,
// PredecodeCheck or DisablePredecode, and not when the budget or the
// observers' cut falls inside the activation. Config.ReplayCheck
// re-interprets every activation and compares it with its recording.

import (
	"fmt"
	"math/bits"
	"slices"
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
	events []uint32
	n      uint64 // instructions, the iret included
	static Stats  // charges no machine state changes
	walked bool   // eligibility checked (walk), wrote and hiLo set
	stored bool   // the activation made a data store

	// Exit state: the activation's register bank (replay restores the
	// registers in wrote), hi and lo (restored if hiLo) and c0 after the
	// iret.
	wrote  uint32
	regs   [32]uint32
	hiLo   bool
	hi, lo uint32
	c0Out  [8]uint32
}

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
	if c.hdec == nil {
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
		if !c.Cfg.ReplayCheck && !c.Cfg.PredecodeCheck && c.limit(left, 0, true, false, detailed) >= rec.n {
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

// replay applies rec as the interpreter would run it from exception
// entry through the iret, and returns the budget moved on by its
// length. The caller closes the exception interval.
func (c *CPU) replay(rec *recording, left int64) int64 {
	var dyn, miss uint64
	ev := rec.events
	skip := c.Cfg.ReplayBreak
	for i := 0; i < len(ev); i++ {
		switch e := ev[i]; e & 3 {
		case evLoad:
			if skip {
				skip = false
				continue
			}
			dyn += c.dAccess(e, detailed)
		case evSwic:
			i++
			c.IC.WriteWord(e&^3, ev[i])
		default: // predict's work, its charge summed below
			if !c.BP.Update(e&^3, e&3 == evTaken) {
				miss++
			}
		}
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
// sets rec's written-register set, and reports whether rec stays; one
// that does not gives its place in the cache to ineligible. The handler
// code is the recorded run's: a store into handler RAM drops every
// recording.
func (c *CPU) walk(rec *recording) bool {
	rec.walked = true
	if c.eligible(rec) {
		return true
	}
	if c.rp.byBadva[rec.c0In[5]] == rec {
		c.rp.byBadva[rec.c0In[5]] = &ineligible
	}
	return false
}

func (c *CPU) eligible(rec *recording) bool {
	if c.rp.steps == nil {
		c.rp.steps = make([]walkStep, len(c.hdec))
		for i := range c.hdec {
			c.rp.steps[i] = walkStepOf(&c.hdec[i])
		}
	}
	n, ev, steps := rec.n, rec.events, c.rp.steps
	wrote := uint32(0)
	last := uint8(wsRefuse)
	pc := c.handlerPC
	for i := uint64(0); i < n; i++ {
		off := (pc - c.handlerPC) >> 2
		if pc&3 != 0 || off >= uint32(len(steps)) {
			return false
		}
		st := steps[off]
		if st.reads&^wrote != 0 {
			return false
		}
		wrote |= st.writes
		next := pc + 4
		switch st.kind {
		case wsPlain:
		case wsJump:
			next = c.hdec[off].tgt
		case wsBranch:
			if len(ev) == 0 || ev[0]&3 == evLoad || ev[0]&3 == evSwic || ev[0]&^3 != pc {
				return false
			}
			if ev[0]&3 == evTaken {
				next = c.hdec[off].tgt
			}
			ev = ev[1:]
		case wsLoad:
			if len(ev) == 0 || ev[0]&3 != evLoad {
				return false
			}
			ev = ev[1:]
		case wsSwic:
			if len(ev) < 2 || ev[0]&3 != evSwic {
				return false
			}
			ev = ev[2:]
		case wsIret:
			if i != n-1 {
				return false
			}
		default:
			return false
		}
		pc, last = next, st.kind
	}
	rec.wrote = wrote &^ 1
	rec.hiLo = wrote&1 != 0
	return last == wsIret && len(ev) == 0
}

// walkStep is what walk needs of one handler instruction: the registers
// it reads and writes, bit 0 standing for hi/lo ($zero reads are free
// and its writes are dropped), and how it moves the walk on.
type walkStep struct {
	reads, writes uint32
	kind          uint8
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
