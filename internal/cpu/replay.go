package cpu

// Handler-activation replay.
//
// A decompression-handler activation that stores nothing but swic and
// reads no register before writing it is a pure function of its entry
// state: the system registers (BADVA among them), the memory it loads
// from and the handler code. At the first activation at each BADVA the
// detailed policy records it by a forward run (record): it executes the
// handler from its entry on a private copy of the registers, hi/lo and
// c0, only reading memory, and collects what the interpreter would do:
// the D-cache loads, branch outcomes and swic stores, in order; the
// charges no machine state changes (static totals); and the exit
// state. That activation and every later one at the same BADVA,
// entered with the same system registers, then skip the interpreter:
// replay applies the recording's effect, adding the static totals in
// one step.
//
// The forward run logs the loads, branches and swics it executes, and
// compile turns the log into one stream per hardware unit. The units
// share no state, so the streams are applied one after the other;
// within a stream the executed order holds:
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
// The forward run is the only place eligibility is decided, and it
// trusts no annotation: it refuses at the first instruction that
// stores, jumps through a register, divides, traps or is illegal, at a
// read of a register (hi and lo included) not yet written, at an
// unaligned load or swic, and where the activation would leave handler
// RAM. A refused BADVA is stored as ineligible and interpreted from
// then on. A forward run that would outlast the budget left is
// abandoned and the activation interpreted; one that outlasts
// recordCap (a handler that never reaches its iret) is refused. A
// recording stays valid while its inputs do: a store into handler RAM
// or into the words any recording loaded from drops them all
// (fstoreData), entry compares every system register (so an mtc0
// anywhere re-records), and Load, RestoreState and a changed Config
// start afresh.
//
// Replay runs only in run's slow path, where fetch raised the
// exception, and only where the interpreted activation would run
// through its iret in one stretch: not under a Trace, a predictor
// observer (BP.OnResolve, which wants every branch), PredecodeCheck or
// DisablePredecode, and not when the budget or the observers' cut falls
// inside the activation; the recording is kept for a later activation
// then. Config.ReplayCheck interprets every activation instead, with
// run's hooks collecting its events, and compares each one the forward
// run accepted, the first at its BADVA included, with the recording:
// the events, which the forward run keeps only then, the static totals
// and the exit state.

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/bpred"
	"repro/internal/isa"
)

// recordCap bounds a forward run: a handler still running after this
// many instructions is interpreted, and its BADVA is not recorded again.
// It also keeps every count in a recording's streams within 32 bits.
const recordCap = 1 << 16

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
	n      uint64    // instructions, the iret included
	static Stats     // charges no machine state changes
	events []uint32  // under ReplayCheck only: the events run's hooks must see

	// The compiled streams. A swic run is a header, its word count times
	// two plus one if it keeps its line's records, then (address, word)
	// pairs; recs holds the kept records, wpl per run.
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

// checked is an activation run interprets under ReplayCheck, to be
// compared with rec at its iret (closeRecording).
type checked struct {
	rec    *recording
	events []uint32 // what run's hooks saw
	stored bool     // the activation made a data store
	entry  Stats    // Stats at entry
	bank   int      // the activation's register bank
	regs   [32]uint32
	hi, lo uint32 // the bank, hi and lo at entry
}

// recordings is the per-CPU replay cache; never serialised.
type recordings struct {
	byBadva map[uint32]*recording
	open    *checked // the activation being checked, nil when none
	buf     checked  // open's storage, reused
	cfg     Config   // the configuration the recordings were made under (MaxInstr zeroed)
	// [lo, lo+span) covers every word a recording loaded from.
	lo, span uint32
	work     recordWork

	// The streams record compiles, and their storage. grp maps a
	// counter to its Transfer's place in bp.s, in its low half, where it
	// is current only if its high half is gen, the forward run's number.
	bp     arena[bpred.Transfer]
	loads  arena[loadRun]
	swic   arena[uint32]
	recs   arena[pinstr]
	grp    []uint64
	gen    uint32
	events []uint32
}

// recordWork counts what the replay cache did, for tests: detailed
// exception entries it saw, forward runs that made a recording or were
// refused, instructions the forward runs executed, and activations
// replayed (or checked under ReplayCheck).
type recordWork struct {
	activations, recorded, refused, steps, replays uint64
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

// dropRecordings forgets every recording. An open check keeps its own,
// so a store that drops them still fails it.
func (c *CPU) dropRecordings() {
	c.rp.byBadva = nil
	c.rp.lo, c.rp.span = 0, 0
}

// enterActivation is called by run at a detailed-policy exception
// entry it may replay (see the file comment for when). It records the
// activation if no recording matches its entry, and returns the
// recording to replay, or nil; under ReplayCheck it returns nil and
// opens the check of an activation that has a recording.
func (c *CPU) enterActivation(left int64) *recording {
	if c.hdec == nil || c.BP.OnResolve != nil || c.Cfg.PredecodeCheck && !c.Cfg.ReplayCheck {
		return nil
	}
	cfg := c.Cfg
	cfg.MaxInstr = 0
	if cfg != c.rp.cfg {
		c.dropRecordings()
		c.rp.cfg = cfg
	}
	c.rp.work.activations++
	rec := c.rp.byBadva[c.c0[isa.C0BadVA]]
	if rec == nil || rec.c0In != c.c0 && rec != &ineligible {
		rec = c.record(left)
	}
	if rec == nil || rec == &ineligible {
		return nil
	}
	if c.Cfg.ReplayCheck {
		o := &c.rp.buf
		o.rec, o.events, o.stored = rec, o.events[:0], false
		o.entry, o.bank, o.regs, o.hi, o.lo = c.Stats, c.bank, c.regs[c.bank], c.hi, c.lo
		c.rp.open = o
		return nil
	}
	if c.limit(left, 0, true, detailed) >= rec.n {
		return rec
	}
	return nil
}

// record makes the recording of the activation just entered by a
// forward run (see the file comment) and stores it under its BADVA, or
// ineligible there if the run is refused. It returns what it stored,
// or nil when the run would outlast left, the budget, and so tells
// nothing.
func (c *CPU) record(left int64) *recording {
	rp := &c.rp
	if len(rp.grp) != c.BP.Entries() {
		rp.grp = make([]uint64, c.BP.Entries())
	}
	ev := rp.events[:0]
	lim := uint64(min(left, recordCap))

	hdec, base := c.hdec, c.handlerPC
	r, hi, lo, c0 := c.regs[c.bank], c.hi, c.lo, c.c0
	// wrote holds the registers written so far and, in bit 0, hi/lo
	// ($zero reads are free and its writes are dropped).
	wrote := uint32(0)
	var n, lu, swics uint64
	lastLoad := -1
	pc := base
	ok := false
	for {
		// A handler pc is word-aligned: the handler starts at an aligned
		// base and only branches and jumps with decoded targets move it.
		i := (pc - base) >> 2
		if uint64(i) >= uint64(len(hdec)) || n == lim {
			break
		}
		p := &hdec[i]
		if (uint32(1)<<uint8(p.srcA)|uint32(1)<<uint8(p.srcB))&^1&^wrote != 0 { // -1 (none) shifts out
			break
		}
		if lastLoad >= 0 && (int(p.srcA) == lastLoad || int(p.srcB) == lastLoad) {
			lu++
		}
		lastLoad = int(p.ldst)
		n++
		next := pc + 4
		d, v := uint8(0), uint32(0) // the register written, and its value
		switch p.op {
		case pSLL:
			d, v = p.rd, r[p.rt&31]<<(p.shamt&31)
		case pSRL:
			d, v = p.rd, r[p.rt&31]>>(p.shamt&31)
		case pSRA:
			d, v = p.rd, uint32(int32(r[p.rt&31])>>(p.shamt&31))
		case pSLLV:
			d, v = p.rd, r[p.rt&31]<<(r[p.rs&31]&31)
		case pSRLV:
			d, v = p.rd, r[p.rt&31]>>(r[p.rs&31]&31)
		case pSRAV:
			d, v = p.rd, uint32(int32(r[p.rt&31])>>(r[p.rs&31]&31))
		case pMFHI, pMFLO:
			if wrote&1 == 0 {
				goto done
			}
			d, v = p.rd, lo
			if p.op == pMFHI {
				v = hi
			}
		case pMULT:
			prod := int64(int32(r[p.rs&31])) * int64(int32(r[p.rt&31]))
			lo, hi = uint32(prod), uint32(prod>>32)
			wrote |= 1
		case pMULTU:
			prod := uint64(r[p.rs&31]) * uint64(r[p.rt&31])
			lo, hi = uint32(prod), uint32(prod>>32)
			wrote |= 1
		case pADD:
			d, v = p.rd, r[p.rs&31]+r[p.rt&31]
		case pSUB:
			d, v = p.rd, r[p.rs&31]-r[p.rt&31]
		case pAND:
			d, v = p.rd, r[p.rs&31]&r[p.rt&31]
		case pOR:
			d, v = p.rd, r[p.rs&31]|r[p.rt&31]
		case pXOR:
			d, v = p.rd, r[p.rs&31]^r[p.rt&31]
		case pNOR:
			d, v = p.rd, ^(r[p.rs&31] | r[p.rt&31])
		case pSLT:
			d, v = p.rd, b2u(int32(r[p.rs&31]) < int32(r[p.rt&31]))
		case pSLTU:
			d, v = p.rd, b2u(r[p.rs&31] < r[p.rt&31])
		case pADDI:
			d, v = p.rt, r[p.rs&31]+p.imm
		case pSLTI:
			d, v = p.rt, b2u(int32(r[p.rs&31]) < int32(p.imm))
		case pSLTIU:
			d, v = p.rt, b2u(r[p.rs&31] < p.imm)
		case pANDI:
			d, v = p.rt, r[p.rs&31]&p.imm
		case pORI:
			d, v = p.rt, r[p.rs&31]|p.imm
		case pXORI:
			d, v = p.rt, r[p.rs&31]^p.imm
		case pLUI:
			d, v = p.rt, p.imm
		case pMFC0:
			d, v = p.rt, c0[p.rd&7]
		case pMTC0:
			c0[p.rd&7] = r[p.rt&31]
		case pJ:
			next = p.imm
		case pJAL:
			d, v, next = 31, pc+4, p.imm

		case pBLTZ, pBGEZ, pBEQ, pBNE, pBLEZ, pBGTZ:
			a, b := r[p.rs&31], r[p.rt&31]
			var taken bool
			switch p.op {
			case pBLTZ:
				taken = int32(a) < 0
			case pBGEZ:
				taken = int32(a) >= 0
			case pBEQ:
				taken = a == b
			case pBNE:
				taken = a != b
			case pBLEZ:
				taken = int32(a) <= 0
			default:
				taken = int32(a) > 0
			}
			ev = append(ev, pc|(evNotTaken+b2u(taken)))
			if taken {
				next = p.imm
			}

		case pLB, pLBU, pLH, pLHU, pLW:
			addr := r[p.rs&31] + p.imm
			// The last word is refused so that the loaded-from extent
			// needs no wrap-around.
			if addr&loadAlign[p.op-pLB] != 0 || addr >= 1<<32-4 {
				goto done
			}
			a := addr &^ 3
			d = p.rt
			if b := c.Mem.Cached(a); len(b) >= 4 {
				v = binary.LittleEndian.Uint32(b)
			} else {
				v = c.Mem.ReadWord(a)
			}
			v >>= 8 * (addr & 3) // memory is little-endian
			switch p.op {
			case pLB:
				v = uint32(int32(int8(v)))
			case pLBU:
				v = uint32(uint8(v))
			case pLH:
				v = uint32(int32(int16(v)))
			case pLHU:
				v = uint32(uint16(v))
			}
			ev = append(ev, a|evLoad)

		case pSWIC:
			a := r[p.rs&31] + p.imm
			if a&3 != 0 {
				goto done
			}
			ev = append(ev, a|evSwic, r[p.rt&31])
			swics++

		case pIRET:
			c0[isa.C0Status] &^= isa.StatusEXL
			ok = true
			goto done

		default: // stores, jr/jalr, div/divu, syscall, break, illegal
			goto done
		}
		if d != 0 {
			r[d&31] = v
			wrote |= 1 << (d & 31)
		}
		pc = next
	}
done:
	rp.work.steps += n
	rp.events = ev
	if !ok && n == lim && lim < recordCap {
		return nil // cut by the budget: interpreted, and recorded another time
	}
	if rp.byBadva == nil {
		rp.byBadva = make(map[uint32]*recording)
	}
	badva := c.c0[isa.C0BadVA]
	if !ok {
		rp.work.refused++
		rp.byBadva[badva] = &ineligible
		return &ineligible
	}
	rp.work.recorded++
	rec := &recording{c0In: c.c0, n: n, wrote: wrote &^ 1, regs: r, hiLo: wrote&1 != 0, hi: hi, lo: lo, c0Out: c0}
	s := &rec.static
	s.HandlerInstrs = n
	s.LoadUseStalls = lu
	s.CPIStack[CycleHandler] = n + swics*uint64(c.Cfg.SwicExtraCycles)
	s.CPIStack[CycleLoadUse] = lu * uint64(c.Cfg.LoadUsePenalty)
	s.CPIStack[CycleExcService] = uint64(c.Cfg.IretCycles)
	s.Cycles = s.CPIStack[CycleHandler] + s.CPIStack[CycleLoadUse] + s.CPIStack[CycleExcService]
	c.compile(rec, ev)
	if c.Cfg.ReplayCheck {
		rec.events = slices.Clone(ev)
	}
	rp.byBadva[badva] = rec
	return rec
}

// compile builds rec's streams from the events of its forward run: each
// branch is added to its counter's Transfer, each load extends the last
// load run or starts one, and each swic extends the open swic run or
// closes it (keepLine) and starts one. It also grows the loaded-from
// extent by the loads.
func (c *CPU) compile(rec *recording, ev []uint32) {
	rp := &c.rp
	if rp.gen++; rp.gen == 0 { // every stamp in grp would be current
		clear(rp.grp)
		rp.gen = 1
	}
	gen := uint64(rp.gen) << 32
	bp, loads, sw, run := rp.bp.s[:0], rp.loads.s[:0], rp.swic.s[:0], -1
	rp.recs.s = rp.recs.s[:0]
	dShift := bits.TrailingZeros32(uint32(c.Cfg.DCache.LineBytes))
	iShift := bits.TrailingZeros32(uint32(c.Cfg.ICache.LineBytes))
	lo, hi := uint32(0), uint32(0) // the words loaded from, empty while equal
	for i := 0; i < len(ev); i++ {
		e := ev[i]
		switch a := e &^ 3; e & 3 {
		case evLoad:
			if k := len(loads) - 1; k >= 0 && loads[k].addr>>dShift == a>>dShift {
				loads[k].n++
			} else {
				loads = append(loads, loadRun{a, 1})
			}
			if lo == hi {
				lo, hi = a, a+4
			}
			lo, hi = min(lo, a), max(hi, a+4)
		case evSwic:
			if run < 0 || sw[run+1]>>iShift != a>>iShift {
				rp.swic.s = sw
				c.keepLine(run)
				run = len(sw)
				sw = append(sw, 0)
			}
			i++
			sw = append(sw, a, ev[i])
			sw[run] += 2
		default:
			t := c.BP.Transfer(a)
			g := rp.grp[t.Index()]
			if g&^(1<<32-1) != gen {
				g = gen | uint64(len(bp))
				rp.grp[t.Index()] = g
				bp = append(bp, t)
			}
			bp[uint32(g)].Add(e&3 == evTaken)
		}
	}
	rp.bp.s, rp.loads.s, rp.swic.s = bp, loads, sw
	c.keepLine(run)
	rec.bp, rec.loads, rec.swic, rec.recs = rp.bp.keep(), rp.loads.keep(), rp.swic.keep(), rp.recs.keep()
	if lo != hi {
		if rp.span != 0 {
			lo, hi = min(lo, rp.lo), max(hi, rp.lo+rp.span)
		}
		rp.lo, rp.span = lo, hi-lo
	}
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

// loadAlign is the alignment mask of each load, from pLB on.
var loadAlign = [...]uint32{pLB - pLB: 0, pLBU - pLB: 0, pLH - pLB: 1, pLHU - pLB: 1, pLW - pLB: 3}

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
			s = c.DC.Fill(c.DC.LineBase(r.addr), nil)
			dyn += c.loadStall()
		}
		if n > 1 {
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
	c.rp.work.replays++
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

// recordLoad, recordBranch and recordSwic append the checked
// activation's events; run's hooks call them only while one is open.
func (o *checked) recordLoad(addr uint32) { o.events = append(o.events, addr&^3|evLoad) }

func (o *checked) recordBranch(pc uint32, taken bool) {
	t := uint32(evNotTaken)
	if taken {
		t = evTaken
	}
	o.events = append(o.events, pc|t)
}

func (o *checked) recordSwic(addr, v uint32) { o.events = append(o.events, addr|evSwic, v) }

// closeRecording ends the checked activation at its iret, with Stats
// flushed through it, and fails unless the interpreter did what its
// recording says: the same events, no store, the static totals the
// forward run derived and no other counter moved, and the same exit
// state, every register outside the recording's written set as it was
// at entry.
func (c *CPU) closeRecording() error {
	o := c.rp.open
	c.rp.open = nil
	rec, e := o.rec, &o.entry
	var s Stats
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
	probe := c.Stats
	probe.Cycles, probe.HandlerInstrs, probe.LoadUseStalls, probe.LoadStalls, probe.CPIStack =
		e.Cycles, e.HandlerInstrs, e.LoadUseStalls, e.LoadStalls, e.CPIStack
	if diff := rec.diff(c, o, &s, probe != *e); diff != "" {
		return fmt.Errorf("cpu: replay check: activation for %#x differs from its recording: %s", rec.c0In[5], diff)
	}
	c.rp.work.replays++
	return nil
}

// diff describes how the checked activation o, which just ended with
// static totals s (and moved other counters if moved), differs from
// its recording rec ("" when it does not).
func (rec *recording) diff(c *CPU, o *checked, s *Stats, moved bool) string {
	switch {
	case o.stored:
		return "the activation stored"
	case moved:
		return "counters outside the static totals moved"
	case rec.n != s.HandlerInstrs:
		return fmt.Sprintf("%d instructions, recorded %d", s.HandlerInstrs, rec.n)
	case rec.static != *s:
		return fmt.Sprintf("static totals %+v, recorded %+v", *s, rec.static)
	case !slices.Equal(rec.events, o.events):
		i := 0
		for i < len(rec.events) && i < len(o.events) && rec.events[i] == o.events[i] {
			i++
		}
		return fmt.Sprintf("event %d of %d differs (recorded %d)", i, len(o.events), len(rec.events))
	case rec.c0Out != c.c0:
		return "exit c0 differs"
	}
	hi, lo := o.hi, o.lo
	if rec.hiLo {
		hi, lo = rec.hi, rec.lo
	}
	if c.hi != hi || c.lo != lo {
		return "exit hi/lo differs"
	}
	for i, v := range c.regs[o.bank] {
		want := o.regs[i]
		if rec.wrote>>i&1 != 0 {
			want = rec.regs[i]
		}
		if v != want {
			return fmt.Sprintf("exit value of register %d differs", i)
		}
	}
	return ""
}
