package cpu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"

	"repro/internal/isa"
	"repro/internal/mem"
)

//go:generate go run ./loopgen

// noLimit disables run's budget or user target.
const noLimit = math.MaxInt64

// run's modes: stop nowhere else, or before a miss.
const (
	runOn = iota
	runToFault
)

// policy is a loop's timing policy. The policies share the loop's
// execute, retire, exception and budget code; only what each charges,
// and the functional policy's fetch source, differ. run is written for
// the detailed policy; funct.go holds it compiled for the other two
// (runWarm, runFunctional), generated from run by go generate.
type policy uint8

const (
	// detailed charges Stats, models the caches and the predictor and
	// calls Tel, Trace and OnKey.
	detailed policy = iota
	// warm makes detailed's I-cache, D-cache, predictor and swic state
	// changes and charges nothing (SMARTS functional warming). It runs
	// only in runToFault mode, which stops before every miss, so its
	// fetches always hit.
	warm
	// functional touches no cache or predictor: it fetches from the
	// flat stores (fstore.go) and raises a decompression exception for
	// each word not yet materialised.
	functional
)

// StepUser runs the detailed engine until one user instruction retires
// outside the handler or max instructions in all have retired, which is
// not an error. Unlike RunDetailedFor it keeps the load-use hazard and
// the repeated-exception guard, so StepUser calls charge as one Run.
func (c *CPU) StepUser(max uint64) error {
	err := c.run(min(c.budget(), int64(min(max, noLimit))), 1, runOn)
	if errors.Is(err, errBudget) && c.budget() > 0 {
		return nil // max, not the budget, was spent
	}
	return err
}

// RunFunctionalFor retires at least n user instructions under the
// functional policy, then continues until the machine is outside the
// decompression handler (an engine switch must never split a handler
// activation: the detailed engine would see a half-decompressed line).
// Entry resets the repeated-exception guard, which describes the
// previous period's last exception. It reports whether the program
// halted.
func (c *CPU) RunFunctionalFor(n uint64) (bool, error) {
	c.lastExc, c.excRepet = 0, 0
	err := c.runFunctional(c.budget(), int64(min(n, noLimit)), runOn)
	return c.halted, err
}

// RunFunctionalSampled is the sampled driver's fast-forward: it retires
// up to n user instructions under the warm policy but stops — before
// any state changes — whenever the next fetch would miss the I-cache.
// The driver then services that event on the detailed engine
// (RunDetailedBurst), so every decompression burst in a sampled run is
// measured exactly rather than estimated; only the steady-state user
// instructions between events are fast-forwarded. Returns (halted,
// pending): pending means a miss is due at the current PC.
func (c *CPU) RunFunctionalSampled(n uint64) (bool, bool, error) {
	pre := c.FStats.Instrs
	if err := c.runWarm(c.budget(), int64(min(n, noLimit)), runToFault); err != nil {
		return false, false, err
	}
	return c.halted, !c.halted && c.FStats.Instrs-pre < n, nil
}

// RunDetailedBurst services exactly one pending decompression event on
// the detailed engine, in one call of its loop: the faulting fetch —
// exception entry, or the hardware fill plus the instruction it
// unblocks — and, for the software path, the entire handler activation
// through iret. Cycle charges land in cpu.Stats, so a sampled run
// accounts every burst exactly. The repeated-exception guard
// (lastExc/excRepet) is left intact across bursts so a handler that
// fails to fill its line is still detected after three back-to-back
// bursts at the same PC, just as in a contiguous detailed run. It
// reports whether the program halted.
func (c *CPU) RunDetailedBurst() (bool, error) {
	c.lastLoad = -1 // exception entry flushes the pipeline anyway
	if err := c.run(c.budget(), 0, runOn); err != nil {
		return false, err
	}
	return c.halted, nil
}

// RunDetailedFor retires at least n user instructions on the detailed
// timing engine, then continues until outside the handler. Entry resets
// the pipeline-local hazard state (lastLoad) and the repeated-exception
// guard: both describe the immediately preceding detailed instruction,
// which after an untimed period does not exist. It reports whether the
// program halted.
func (c *CPU) RunDetailedFor(n uint64) (bool, error) {
	c.lastLoad = -1
	c.lastExc, c.excRepet = 0, 0
	if err := c.run(c.budget(), int64(min(n, noLimit)), runOn); err != nil {
		return false, err
	}
	return c.halted, nil
}

// RunDetailedWindow is RunDetailedFor with burst attribution: it retires
// at least n user instructions on the detailed timing engine and
// separately accumulates, into *burstCycles and *burstInstrs, the cost
// of the decompression events serviced inside the window (exception
// entry through iret on the software path; the fill stall plus the
// instruction it unblocks on the hardware path). All charges still land
// in cpu.Stats exactly as a plain detailed run would make them — the
// split only tells the sampled estimator which window cycles are
// steady-state user execution (safe to extrapolate over fast-forwarded
// instructions) and which belong to bursts (already counted exactly).
func (c *CPU) RunDetailedWindow(n uint64, burstCycles, burstInstrs *uint64) (bool, error) {
	c.lastLoad = -1
	c.lastExc, c.excRepet = 0, 0
	target := c.Stats.Instrs + n
	for !c.halted {
		if c.missDue() {
			preC, preI := c.Stats.Cycles, c.Stats.Instrs
			if _, err := c.RunDetailedBurst(); err != nil {
				return false, err
			}
			*burstCycles += c.Stats.Cycles - preC
			*burstInstrs += c.Stats.Instrs - preI
		} else if err := c.run(c.budget(), int64(min(target-min(c.Stats.Instrs, target), noLimit)), runToFault); err != nil {
			return false, err
		}
		if c.Stats.Instrs >= target && !c.inHandler {
			break
		}
	}
	return c.halted, nil
}

// budget is the Config.MaxInstr allowance both engines have left.
func (c *CPU) budget() int64 {
	if c.Cfg.MaxInstr == 0 {
		return noLimit
	}
	t := c.Stats.Instrs + c.Stats.HandlerInstrs + c.FStats.Instrs + c.FStats.HandlerInstrs
	return int64(min(c.Cfg.MaxInstr-min(t, c.Cfg.MaxInstr), noLimit))
}

// errBudget marks the error that ends a run whose allowance is spent.
var errBudget = errors.New("budget")

func (c *CPU) budgetError() error {
	return fmt.Errorf("cpu: instruction %w %d exhausted at pc %#x", errBudget, c.Cfg.MaxInstr, c.pc)
}

// window is a run of predecoded records a loop fetches from without
// its slow path: rec[i] is the instruction at base+4i. slot is the
// I-cache slot that holds them, or -1 (handler RAM, a flat store).
type window struct {
	base uint32
	rec  []pinstr
	slot int
}

// fetch is the loops' slow path: it returns the predecoded instruction
// at the current PC, or nil when a decompression exception was raised
// instead, and leaves in c.win the window the loop may fetch from next
// (none, when every fetch there must come back here). Handler RAM is
// read alike under every policy. The detailed and warm policies read
// the I-cache; the functional policy reads the flat stores, whose
// regions are its windows. With Cfg.DisablePredecode the I-cache word
// is decoded afresh into a scratch record every cycle — same loop,
// reference timing.
func (c *CPU) fetch(pol policy) (*pinstr, error) {
	pc := c.pc
	c.win = window{slot: -1}
	if pc&3 != 0 {
		return nil, fmt.Errorf("cpu: unaligned fetch at %#x", pc)
	}
	// The decompressor executes from its own on-chip RAM, accessed in
	// parallel with the I-cache (paper §4.1): no cache involvement.
	if c.inHandlerRAM(pc) {
		if c.Cfg.DisablePredecode || c.hdec == nil {
			c.scratch = decodeInstr(pc, c.Mem.ReadWord(pc))
			return &c.scratch, nil
		}
		p := &c.hdec[(pc-c.handlerPC)>>2]
		if c.Cfg.PredecodeCheck {
			if err := c.checkPredecode(p, pc, c.Mem.ReadWord(pc)); err != nil {
				return nil, err
			}
		}
		c.win = c.handlerWindow(pol)
		return p, nil
	}
	if pol == functional {
		if c.InCompressedRegion(pc) {
			i := (pc - c.compStart) >> 2
			if c.fsOK[i] == 0 {
				if !c.Cfg.HardwareDecompress {
					return nil, c.raiseDecompress(pc, pol)
				}
				if err := c.materialiseLine(pc); err != nil {
					return nil, err
				}
			}
			if c.fcdec[i].op == pUndecoded {
				c.fcdec[i] = decodeInstr(pc, c.fsWord[i])
			}
			c.win = window{base: c.compStart, rec: c.fcdec, slot: -1}
			return &c.fcdec[i], nil
		}
		// A word swic'd outside the compressed region shadows memory, as
		// its I-cache line does in the detailed engine. It is decoded per
		// fetch, never into fdec, which native refills copy from.
		w, swic := c.fxtra[pc]
		if !swic {
			if !c.Mem.Backed(pc) {
				return nil, fmt.Errorf("cpu: fetch from unmapped address %#x", pc)
			}
			w = c.Mem.ReadWord(pc)
		}
		if pc >= c.fdBase && pc < c.fdEnd {
			c.win = window{base: c.fdBase, rec: c.fdec, slot: -1}
			if j := (pc - c.fdBase) >> 2; !swic {
				if c.fdec[j].op == pUndecoded {
					c.fdec[j] = decodeInstr(pc, w)
				}
				return &c.fdec[j], nil
			}
		}
		c.scratch = decodeInstr(pc, w)
		return &c.scratch, nil
	}
	slot := c.IC.Lookup(pc)
	if slot < 0 {
		if c.InCompressedRegion(pc) {
			if !c.Cfg.HardwareDecompress {
				return nil, c.raiseDecompress(pc, pol)
			}
			var err error
			if slot, err = c.hardwareFill(pc); err != nil {
				return nil, err
			}
		} else {
			// Hardware fill from backed memory.
			base := c.IC.LineBase(pc)
			if !c.Mem.Backed(base) {
				return nil, fmt.Errorf("cpu: fetch from unmapped address %#x", pc)
			}
			start := c.Stats.Cycles
			var stall int
			slot, stall = c.fillNative(base)
			c.Stats.Cycles += uint64(stall)
			c.Stats.FetchStalls += uint64(stall)
			c.Stats.CPIStack[CycleFetchStall] += uint64(stall)
			c.Stats.IMissNative++
			if c.Tel != nil {
				c.Tel.IFill(pc, start, uint64(stall), FillNative)
			}
		}
	}
	if c.Cfg.DisablePredecode {
		w, _ := c.IC.ReadWord(pc) // present: slot >= 0
		c.scratch = decodeInstr(pc, w)
		return &c.scratch, nil
	}
	p := c.slotRecord(pc, slot)
	if pol == detailed && c.OnKey != nil && c.win.rec != nil {
		if !c.inKey(pc) { // a handler fetch keyed by its EPC
			c.win = window{slot: -1}
		} else {
			c.win.base, c.win.rec = c.clip(c.win.base, c.win.rec)
		}
	}
	if c.Cfg.PredecodeCheck {
		w, _ := c.IC.ReadWord(pc)
		if err := c.checkPredecode(p, pc, w); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// handlerWindow is handler RAM as a fetch window, or none: none under
// PredecodeCheck (fetch checks every record), and none outside the
// handler while the detailed policy has observers attached (a user
// commit there is keyed by its own address, so its fetch must call
// them out).
func (c *CPU) handlerWindow(pol policy) window {
	if c.Cfg.PredecodeCheck || pol == detailed && c.OnKey != nil && !c.inHandler {
		return window{slot: -1}
	}
	return window{base: c.handlerPC, rec: c.hdec, slot: -1}
}

// inKey reports whether the observers' key range holds pc.
func (c *CPU) inKey(pc uint32) bool {
	return uint64(pc) >= c.keyLo && uint64(pc) < c.keyHi
}

// clip narrows the records of the I-cache line at base to the part the
// observers' key range covers, which must hold somewhere in the line.
func (c *CPU) clip(base uint32, rec []pinstr) (uint32, []pinstr) {
	lo, hi := uint64(base), uint64(base)+4*uint64(len(rec))
	i, j := (max(c.keyLo, lo)-lo+3)>>2, (min(c.keyHi, hi)-lo+3)>>2
	return base + uint32(i)<<2, rec[i:j]
}

// handOver gives the I-cache the hits a loop's window counted since
// the last handover, as that many Accesses would have left them. A
// window outside the I-cache (slot -1, every functional window) has
// none to give.
func (c *CPU) handOver(slot int, hits uint64) {
	if slot >= 0 && hits != 0 {
		c.IC.Hits(slot, hits)
	}
}

// missDue reports whether fetching at the PC would miss the I-cache
// outside the handler: a decompression event in the compressed region
// or a hardware line fill in the native one. runToFault stops there
// before any state changes, so the sampled driver services the event
// on the detailed engine. Pure probe — no state is touched.
func (c *CPU) missDue() bool {
	pc := c.pc
	return !c.inHandler && pc&3 == 0 && !c.inHandlerRAM(pc) && !c.IC.Probe(pc)
}

// hardwareFill models a hardware decompression unit: the compressed
// bytes are fetched over the bus (about half a line for the dictionary
// scheme) and decoded with a fixed latency, then the native line is
// installed — no exception, no handler instructions. It returns the
// line's slot.
func (c *CPU) hardwareFill(pc uint32) (int, error) {
	if c.goldenText == nil {
		return -1, fmt.Errorf("cpu: hardware decompression without decompressed text at %#x", pc)
	}
	base := c.IC.LineBase(pc)
	n := c.Cfg.ICache.LineBytes
	start := c.Stats.Cycles
	stall := c.Mem.Burst(n/2) + c.Cfg.HWDecompressCycles
	slot := c.IC.Fill(base, c.goldenLine(base))
	c.Stats.Cycles += uint64(stall)
	c.Stats.FetchStalls += uint64(stall)
	c.Stats.CPIStack[CycleExcService] += uint64(stall)
	c.Stats.IMissCompressed++
	if c.Tel != nil {
		c.Tel.IFill(pc, start, uint64(stall), FillHardwareDecomp)
	}
	return slot, nil
}

// raiseDecompress takes the decompression exception for a fetch at pc:
// the architectural entry every policy shares, which makes handler RAM
// the loop's window, then the detailed policy's charges, or FStats'
// count under the others.
func (c *CPU) raiseDecompress(pc uint32, pol policy) error {
	if c.inHandler {
		return fmt.Errorf("cpu: nested decompression exception at %#x", pc)
	}
	if pc == c.lastExc {
		c.excRepet++
		if c.excRepet >= 2 {
			return fmt.Errorf("cpu: handler failed to fill line for %#x (repeated exception)", pc)
		}
	} else {
		c.lastExc, c.excRepet = pc, 0
	}
	c.c0[isa.C0EPC] = pc
	c.c0[isa.C0BadVA] = pc
	c.c0[isa.C0Status] |= isa.StatusEXL
	c.lastLoad = -1 // the flush drains the pipeline
	c.inHandler = true
	c.savedBank = c.bank
	if c.c0[isa.C0Status]&isa.StatusShadowRF != 0 {
		c.bank = 1
	}
	c.pc = c.handlerPC
	c.win = c.handlerWindow(pol)
	if pol != detailed {
		c.FStats.Exceptions++
		return nil
	}
	c.Stats.Exceptions++
	c.Stats.IMissCompressed++
	c.excStart = c.Stats.Cycles
	if c.Tel != nil {
		c.Tel.ExcEnter(pc, c.excStart)
	}
	c.Stats.Cycles += uint64(c.Cfg.ExceptionEntry)
	c.Stats.CPIStack[CycleExcService] += uint64(c.Cfg.ExceptionEntry)
	return nil
}

// run is the interpreter: the one fetch/execute/retire loop, and the
// only hand-edited one. It is written for the detailed policy (the
// constant pol); go generate copies it into funct.go as runWarm and
// runFunctional with pol rebound, so each policy's loop is compiled
// with every pol test folded and carries only its own work.
//
// It stops when the program halts, after the step that spends left
// (the budget error, also returned before any step when nothing is
// left), once user user instructions retired outside the handler, or
// as mode asks. pc, lastLoad, the register file, inHandler and the
// counts charged since the last flush live in locals; flush writes
// them back where they are read: the slow fetch path, a key change on
// the fast path, iret, syscall, tracer calls, errors and return. Only
// the detailed policy calls the observers: the attribution observers
// (OnKey) are called out only where the locals are already flushed,
// and their cut is folded into lim; a tracer makes every commit a stop.
//
// Fetch reads one window, held in locals: the records of the region
// the last slow fetch resolved (handler RAM, a flat store, or the
// current I-cache line), and a count of the I-cache hits taken in it.
// A fetch that leaves the window for an I-cache line that hits, is
// predecoded and may be a window (lineWindow) moves it in place, by a
// tag probe the loop inlines; an observed loop clips the window to the
// observers' key range and calls them out there when the move leaves
// that range. Everything else takes fetch. The hits are handed over
// (handOver) before any other I-cache operation, before every callout
// and at every return; a swic ends an I-cache window.
//
// Fetching from the window, moving it, a load that hits the D-cache
// (cache.Hit, which changes nothing on a miss) from a page the
// memory's page cache holds (mem.Cached), and a store to such a page
// that needs no coherence work (plainStore) make no call. The loop
// calls out on a miss, a branch (the predictor), any other store, a
// swic, a syscall, and on every load while ReplayCheck checks a
// handler activation (dAccess logs it).
func (c *CPU) run(left, user int64, mode int) error {
	const pol = detailed
	if c.halted {
		return nil
	}
	if left <= 0 {
		return c.budgetError()
	}
	c.rp.open = nil // an activation cut short by an error is not checked
	if pol == detailed && c.OnKey != nil {
		c.observe()
	}
	if pol == functional {
		c.fensure()
	}
	pc, lastLoad, inH, r := c.pc, c.lastLoad, c.inHandler, &c.regs[c.bank]
	var cycles, lu, n uint64 // charged since the last flush
	var wBase uint32
	var wRec []pinstr
	wSlot, hits := -1, uint64(0)
	lim := c.limit(left, user, inH, pol)
	var p *pinstr
	var err error
	for {
		if pol == functional && !c.loopOnly {
			// Straight-line code runs in the leaf core (funct.go). It
			// stops a retirement short of lim, so the stop checks
			// below still see every retirement that ends a run.
			pc, n, lastLoad = c.coreFunctional(pc, wBase, wRec, r, inH, lastLoad, n, lim-1)
		}
		// A misaligned pc rotates its low bits to the top: never in range.
		if i := bits.RotateLeft32(pc-wBase, -2); uint(i) < uint(len(wRec)) &&
			(pol != functional || wRec[i].op != pUndecoded) {
			p = &wRec[i]
			if pol != functional {
				hits++
			}
		} else {
			// The line holding pc is probed in place: the window moves
			// there when it may be a window at all (lineWindow), it hits
			// and its records are current.
			s := -1
			if pol != functional && pc&3 == 0 && c.lineWindow(pc) {
				s = c.IC.Slot(pc)
			}
			if s >= 0 && c.IC.Derived(s) && (pol != detailed || c.OnKey == nil || !inH || c.inKey(pc)) {
				c.handOver(wSlot, hits)
				wBase, wRec, wSlot, hits = c.IC.LineBase(pc), c.pcode[s*c.wpl:(s+1)*c.wpl], s, 1
				if pol == detailed && c.OnKey != nil {
					if !c.inKey(pc) {
						// A user fetch that changes the key: the observers
						// are called out as on the slow path, with the
						// commits so far flushed.
						left, user = c.flush(inH, cycles, lu, n, left, user)
						cycles, lu, n, c.pc, c.lastLoad = 0, 0, 0, pc, lastLoad
						c.observe()
						lim = c.limit(left, user, inH, pol)
					}
					wBase, wRec = c.clip(wBase, wRec)
				}
				p = &wRec[(pc-wBase)>>2]
			} else {
				c.handOver(wSlot, hits)
				if pol == detailed {
					left, user = c.flush(inH, cycles, lu, n, left, user)
				} else {
					left, user = c.count(inH, n, left, user)
				}
				cycles, lu, n, hits, c.pc, c.lastLoad = 0, 0, 0, 0, pc, lastLoad
				if pol == detailed && c.OnKey != nil {
					c.observe()
				}
				if mode == runToFault && c.missDue() {
					return nil
				}
				if p, err = c.fetch(pol); err != nil {
					return err
				}
				wBase, wRec, wSlot = c.win.base, c.win.rec, c.win.slot
				if p == nil { // a decompression exception vectored to the handler
					pc, lastLoad, inH, r = c.pc, c.lastLoad, c.inHandler, &c.regs[c.bank]
					if pol == detailed && c.OnKey != nil {
						c.observe()
					}
					if left <= 0 {
						return c.budgetError()
					}
					if pol == detailed && c.Trace == nil {
						if rec := c.enterActivation(left); rec != nil {
							left = c.replay(rec, left)
							c.excReturn(c.pc)
							if c.OnKey != nil {
								c.observe()
							}
							wRec, wSlot = nil, -1
							pc, lastLoad, inH, r = c.pc, c.lastLoad, false, &c.regs[c.bank]
							if left <= 0 {
								return c.budgetError()
							}
							if user <= 0 {
								return nil
							}
						}
					}
				}
				if lim = c.limit(left, user, inH, pol); p == nil {
					continue
				}
			}
		}

		// Load-use interlock: a 5-stage pipeline bubbles one cycle when an
		// instruction consumes the value the immediately preceding load
		// produced (MEM -> EX forwarding gap).
		cyc := uint64(1)
		if pol == detailed && lastLoad >= 0 && (int(p.srcA) == lastLoad || int(p.srcB) == lastLoad) {
			cyc += uint64(c.Cfg.LoadUsePenalty)
			lu++
		}
		lastLoad = int(p.ldst)
		next := pc + 4

		switch p.op {
		case pSLL:
			c.setr(r, int(p.rd), r[p.rt&31]<<(p.shamt&31))
		case pSRL:
			c.setr(r, int(p.rd), r[p.rt&31]>>(p.shamt&31))
		case pSRA:
			c.setr(r, int(p.rd), uint32(int32(r[p.rt&31])>>(p.shamt&31)))
		case pSLLV:
			c.setr(r, int(p.rd), r[p.rt&31]<<(r[p.rs&31]&31))
		case pSRLV:
			c.setr(r, int(p.rd), r[p.rt&31]>>(r[p.rs&31]&31))
		case pSRAV:
			c.setr(r, int(p.rd), uint32(int32(r[p.rt&31])>>(r[p.rs&31]&31)))
		case pJR:
			next = r[p.rs&31]
			if pol == detailed {
				cyc += uint64(c.Cfg.JRPenalty)
				c.Stats.CPIStack[CycleBranch] += uint64(c.Cfg.JRPenalty)
			}
		case pJALR:
			c.setr(r, int(p.rd), pc+4)
			next = r[p.rs&31]
			if pol == detailed {
				cyc += uint64(c.Cfg.JRPenalty)
				c.Stats.CPIStack[CycleBranch] += uint64(c.Cfg.JRPenalty)
			}
			if !inH && pol == detailed && c.calls != nil {
				c.calls[[2]uint32{pc, next}]++
			}
		case pSyscall:
			c.pc = pc // the unknown-syscall error names it
			if err = c.syscall(r); err != nil {
				goto fail
			}
			lim = 0 // the program may have exited
		case pBreak:
			err = fmt.Errorf("cpu: break at %#x", pc)
			goto fail
		case pMFHI:
			c.setr(r, int(p.rd), c.hi)
		case pMFLO:
			c.setr(r, int(p.rd), c.lo)
		case pMULT:
			prod := int64(int32(r[p.rs&31])) * int64(int32(r[p.rt&31]))
			c.lo, c.hi = uint32(prod), uint32(prod>>32)
		case pMULTU:
			prod := uint64(r[p.rs&31]) * uint64(r[p.rt&31])
			c.lo, c.hi = uint32(prod), uint32(prod>>32)
		case pDIV:
			if r[p.rt&31] != 0 {
				c.lo = uint32(int32(r[p.rs&31]) / int32(r[p.rt&31]))
				c.hi = uint32(int32(r[p.rs&31]) % int32(r[p.rt&31]))
			}
		case pDIVU:
			if r[p.rt&31] != 0 {
				c.lo = r[p.rs&31] / r[p.rt&31]
				c.hi = r[p.rs&31] % r[p.rt&31]
			}
		case pADD:
			c.setr(r, int(p.rd), r[p.rs&31]+r[p.rt&31])
		case pSUB:
			c.setr(r, int(p.rd), r[p.rs&31]-r[p.rt&31])
		case pAND:
			c.setr(r, int(p.rd), r[p.rs&31]&r[p.rt&31])
		case pOR:
			c.setr(r, int(p.rd), r[p.rs&31]|r[p.rt&31])
		case pXOR:
			c.setr(r, int(p.rd), r[p.rs&31]^r[p.rt&31])
		case pNOR:
			c.setr(r, int(p.rd), ^(r[p.rs&31] | r[p.rt&31]))
		case pSLT:
			c.setr(r, int(p.rd), b2u(int32(r[p.rs&31]) < int32(r[p.rt&31])))
		case pSLTU:
			c.setr(r, int(p.rd), b2u(r[p.rs&31] < r[p.rt&31]))

		case pBLTZ:
			taken := int32(r[p.rs&31]) < 0
			cyc += c.branch(pc, taken, pol)
			if taken {
				next = p.imm
			}
		case pBGEZ:
			taken := int32(r[p.rs&31]) >= 0
			cyc += c.branch(pc, taken, pol)
			if taken {
				next = p.imm
			}

		case pJ:
			next = p.imm
		case pJAL:
			c.setr(r, 31, pc+4)
			next = p.imm
			if !inH && pol == detailed && c.calls != nil {
				c.calls[[2]uint32{pc, next}]++
			}

		case pBEQ:
			taken := r[p.rs&31] == r[p.rt&31]
			cyc += c.branch(pc, taken, pol)
			if taken {
				next = p.imm
			}
		case pBNE:
			taken := r[p.rs&31] != r[p.rt&31]
			cyc += c.branch(pc, taken, pol)
			if taken {
				next = p.imm
			}
		case pBLEZ:
			taken := int32(r[p.rs&31]) <= 0
			cyc += c.branch(pc, taken, pol)
			if taken {
				next = p.imm
			}
		case pBGTZ:
			taken := int32(r[p.rs&31]) > 0
			cyc += c.branch(pc, taken, pol)
			if taken {
				next = p.imm
			}

		case pADDI:
			c.setr(r, int(p.rt), r[p.rs&31]+p.imm)
		case pSLTI:
			c.setr(r, int(p.rt), b2u(int32(r[p.rs&31]) < int32(p.imm)))
		case pSLTIU:
			c.setr(r, int(p.rt), b2u(r[p.rs&31] < p.imm))
		case pANDI:
			c.setr(r, int(p.rt), r[p.rs&31]&p.imm)
		case pORI:
			c.setr(r, int(p.rt), r[p.rs&31]|p.imm)
		case pXORI:
			c.setr(r, int(p.rt), r[p.rs&31]^p.imm)
		case pLUI:
			c.setr(r, int(p.rt), p.imm)

		case pMFC0:
			c.setr(r, int(p.rt), c.c0[p.rd&7])
		case pMTC0:
			c.c0[p.rd&7] = r[p.rt&31]
		case pIRET:
			if !inH {
				err = fmt.Errorf("cpu: iret outside handler at %#x", pc)
				goto fail
			}
			c.inHandler = false
			c.bank = c.savedBank
			c.c0[isa.C0Status] &^= isa.StatusEXL
			lastLoad = -1 // redirect drains the pipeline
			next = c.c0[isa.C0EPC]
			if pol == detailed {
				cyc += uint64(c.Cfg.IretCycles)
				c.Stats.CPIStack[CycleExcService] += uint64(c.Cfg.IretCycles)
			}
			lim = 0 // close the exception interval below

		case pLB:
			addr := r[p.rs&31] + p.imm
			if pol != functional && (pol == detailed && c.rp.open != nil || !c.DC.Hit(addr)) {
				cyc += c.dAccess(addr, pol)
			}
			if b := c.Mem.Cached(addr); len(b) > 0 {
				c.setr(r, int(p.rt), uint32(int32(int8(b[0]))))
			} else {
				c.setr(r, int(p.rt), uint32(int32(int8(c.Mem.LoadByte(addr)))))
			}
		case pLBU:
			addr := r[p.rs&31] + p.imm
			if pol != functional && (pol == detailed && c.rp.open != nil || !c.DC.Hit(addr)) {
				cyc += c.dAccess(addr, pol)
			}
			if b := c.Mem.Cached(addr); len(b) > 0 {
				c.setr(r, int(p.rt), uint32(b[0]))
			} else {
				c.setr(r, int(p.rt), uint32(c.Mem.LoadByte(addr)))
			}
		case pLH:
			addr := r[p.rs&31] + p.imm
			if pol != functional && (pol == detailed && c.rp.open != nil || !c.DC.Hit(addr)) {
				cyc += c.dAccess(addr, pol)
			}
			if addr&1 != 0 {
				err = fmt.Errorf("cpu: unaligned lh at %#x (addr %#x)", pc, addr)
				goto fail
			}
			if b := c.Mem.Cached(addr); len(b) >= 2 {
				c.setr(r, int(p.rt), uint32(int32(int16(binary.LittleEndian.Uint16(b)))))
			} else {
				c.setr(r, int(p.rt), uint32(int32(int16(c.Mem.ReadHalf(addr)))))
			}
		case pLHU:
			addr := r[p.rs&31] + p.imm
			if pol != functional && (pol == detailed && c.rp.open != nil || !c.DC.Hit(addr)) {
				cyc += c.dAccess(addr, pol)
			}
			if addr&1 != 0 {
				err = fmt.Errorf("cpu: unaligned lhu at %#x (addr %#x)", pc, addr)
				goto fail
			}
			if b := c.Mem.Cached(addr); len(b) >= 2 {
				c.setr(r, int(p.rt), uint32(binary.LittleEndian.Uint16(b)))
			} else {
				c.setr(r, int(p.rt), uint32(c.Mem.ReadHalf(addr)))
			}
		case pLW:
			addr := r[p.rs&31] + p.imm
			if pol != functional && (pol == detailed && c.rp.open != nil || !c.DC.Hit(addr)) {
				cyc += c.dAccess(addr, pol)
			}
			if addr&3 != 0 {
				err = fmt.Errorf("cpu: unaligned lw at %#x (addr %#x)", pc, addr)
				goto fail
			}
			if b := c.Mem.Cached(addr); len(b) >= 4 {
				c.setr(r, int(p.rt), binary.LittleEndian.Uint32(b))
			} else {
				c.setr(r, int(p.rt), c.Mem.ReadWord(addr))
			}

		case pSB:
			addr := r[p.rs&31] + p.imm
			if b := c.Mem.Cached(addr); len(b) > 0 && c.plainStore(addr) {
				b[0] = byte(r[p.rt&31])
			} else {
				if !c.Mem.StoreByte(addr, byte(r[p.rt&31])) {
					err = storeError(pc, addr)
					goto fail
				}
				c.fstoreData(addr)
			}
		case pSH:
			addr := r[p.rs&31] + p.imm
			if addr&1 != 0 {
				err = fmt.Errorf("cpu: unaligned sh at %#x (addr %#x)", pc, addr)
				goto fail
			}
			if b := c.Mem.Cached(addr); len(b) >= 2 && c.plainStore(addr) {
				binary.LittleEndian.PutUint16(b, uint16(r[p.rt&31]))
			} else {
				if !c.Mem.WriteHalf(addr, uint16(r[p.rt&31])) {
					err = storeError(pc, addr)
					goto fail
				}
				c.fstoreData(addr)
			}
		case pSW:
			addr := r[p.rs&31] + p.imm
			if addr&3 != 0 {
				err = fmt.Errorf("cpu: unaligned sw at %#x (addr %#x)", pc, addr)
				goto fail
			}
			if b := c.Mem.Cached(addr); len(b) >= 4 && c.plainStore(addr) {
				binary.LittleEndian.PutUint32(b, r[p.rt&31])
			} else {
				if !c.Mem.WriteWord(addr, r[p.rt&31]) {
					err = storeError(pc, addr)
					goto fail
				}
				c.fstoreData(addr)
			}

		case pSWIC:
			addr := r[p.rs&31] + p.imm
			if addr&3 != 0 {
				err = fmt.Errorf("cpu: unaligned swic at %#x (addr %#x)", pc, addr)
				goto fail
			}
			v := r[p.rt&31]
			if pol == functional {
				if c.Cfg.FunctionalBreak && inH {
					// Deliberate fault injection for the equivalence
					// battery's negative control: corrupt the
					// materialised stream.
					v ^= 4
				}
				c.fsPut(addr, v)
				break
			}
			c.handOver(wSlot, hits)
			hits = 0
			c.IC.WriteWord(addr, v)
			if wSlot >= 0 { // the write may have changed or evicted the window's line
				wRec, wSlot = nil, -1
			}
			if pol == detailed && c.rp.open != nil {
				c.rp.open.recordSwic(addr, v)
			}
			if pol != detailed {
				break
			}
			cyc += uint64(c.Cfg.SwicExtraCycles)
			if inH {
				c.Stats.CPIStack[CycleHandler] += uint64(c.Cfg.SwicExtraCycles)
			} else {
				c.Stats.CPIStack[CycleUser] += uint64(c.Cfg.SwicExtraCycles)
			}

		default:
			err = illegalInstrError(p.raw, pc)
			goto fail
		}

		if pol == detailed {
			cycles += cyc
		}
		n++
		if n < lim {
			pc = next
			continue
		}

		// A stop condition may hold, or an iret or syscall ran.
		c.handOver(wSlot, hits)
		if pol == detailed {
			left, user = c.flush(inH, cycles, lu, n, left, user)
		} else {
			left, user = c.count(inH, n, left, user)
		}
		cycles, lu, n, hits, c.pc, c.lastLoad = 0, 0, 0, 0, next, lastLoad
		if pol == detailed && inH && !c.inHandler {
			// This instruction was the iret.
			if c.rp.open != nil {
				if err = c.closeRecording(); err != nil {
					return err
				}
			}
			c.excReturn(next)
		}
		if pol == detailed && c.OnKey != nil { // before the tracers, as the commit's first observer
			c.observe()
			if !c.inHandler && wSlot < 0 { // user fetches from handler RAM call the observers out
				wRec = nil
			}
		}
		if pol == detailed && c.Trace != nil { // the tracer sees Stats and PC() as of this commit
			c.Trace(pc, p.raw, inH)
		}
		inH, r = c.inHandler, &c.regs[c.bank]
		if left <= 0 {
			return c.budgetError()
		}
		if c.halted || (!inH && user <= 0) {
			return nil
		}
		pc = next
		lim = c.limit(left, user, inH, pol)
	}

fail:
	c.handOver(wSlot, hits)
	if pol == detailed {
		c.flush(inH, cycles, lu, n, left, user)
	} else {
		c.count(inH, n, left, user)
	}
	c.pc, c.lastLoad = pc, lastLoad
	return err
}

// storeError is the error that ends a run whose store at pc to addr
// would back memory past mem.MaxBacked.
func storeError(pc, addr uint32) error {
	return fmt.Errorf("cpu: store at %#x to %#x: %w", pc, addr, mem.ErrBacked)
}

// excReturn closes the exception interval at the handler's iret,
// returning to epc.
func (c *CPU) excReturn(epc uint32) {
	lat := c.Stats.Cycles - c.excStart
	c.Stats.ExcCyclesTotal += lat
	if lat > c.Stats.ExcCyclesMax {
		c.Stats.ExcCyclesMax = lat
	}
	if c.Tel != nil {
		c.Tel.ExcReturn(epc, c.Stats.Cycles, lat)
	}
}

// limit is how many retirements after a flush run checks its stops:
// the budget, the user target outside the handler and, under the
// detailed policy, the observers' cut, or every one when a tracer is
// attached.
func (c *CPU) limit(left, user int64, handler bool, pol policy) uint64 {
	if !handler && user < left {
		left = user
	}
	if left < 1 || pol == detailed && c.Trace != nil {
		return 1
	}
	if r := c.Stats.Instrs + c.Stats.HandlerInstrs; pol == detailed && c.cut > r {
		return min(uint64(left), c.cut-r)
	}
	return uint64(left)
}

// observe calls the attribution observers out and keeps their answer:
// the range for lineWindow, the cut for limit. run checks OnKey before
// calling it, and calls it only under the detailed policy, so an
// unobserved slow path pays one compare.
func (c *CPU) observe() {
	if c.OnKey != nil {
		k := c.OnKey()
		c.keyLo, c.keyHi, c.cut = k.Lo, k.Hi, k.Cut
	}
}

// flush adds the detailed policy's local counts to Stats: cycles, lu
// load-use interlocks and n retirements, all user or all handler. It
// returns the budget and user countdowns moved on by n.
func (c *CPU) flush(handler bool, cycles, lu, n uint64, left, user int64) (int64, int64) {
	c.Stats.Cycles += cycles
	if lu != 0 {
		c.Stats.LoadUseStalls += lu
		c.Stats.CPIStack[CycleLoadUse] += lu * uint64(c.Cfg.LoadUsePenalty)
	}
	if handler {
		c.Stats.HandlerInstrs += n
		c.Stats.CPIStack[CycleHandler] += n
	} else {
		c.Stats.Instrs += n
		c.Stats.CPIStack[CycleUser] += n
		user -= int64(n)
	}
	return left - int64(n), user
}

// count is flush for the untimed policies: n retirements, to FStats.
// The two stay apart so that each inlines into run.
func (c *CPU) count(handler bool, n uint64, left, user int64) (int64, int64) {
	if handler {
		c.FStats.HandlerInstrs += n
	} else {
		c.FStats.Instrs += n
		user -= int64(n)
	}
	return left - int64(n), user
}

// illegalInstrError reconstructs the decode error for an unrecognised
// encoding from its raw word, preserving the exact legacy messages.
func illegalInstrError(w, pc uint32) error {
	switch isa.Op(w) {
	case isa.OpSpecial:
		return fmt.Errorf("cpu: illegal funct %#x at %#x", isa.Funct(w), pc)
	case isa.OpRegImm:
		return fmt.Errorf("cpu: illegal regimm %#x at %#x", isa.Rt(w), pc)
	case isa.OpCOP0:
		if isa.Rs(w) == isa.CopCO {
			return fmt.Errorf("cpu: illegal cop0 funct %#x at %#x", isa.Funct(w), pc)
		}
		return fmt.Errorf("cpu: illegal cop0 rs %#x at %#x", isa.Rs(w), pc)
	default:
		return fmt.Errorf("cpu: illegal opcode %#x at %#x", isa.Op(w), pc)
	}
}

// setr writes register rd of r ($zero writes are dropped). rd is
// masked to its five bits, so the write needs no bounds check.
func (c *CPU) setr(r *[32]uint32, rd int, v uint32) {
	if rd != 0 {
		r[rd&31] = v
	}
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// branch trains the predictor (the detailed and warm policies) and
// returns the penalty cycles (the detailed policy). It inlines, so the
// functional policy pays no call.
func (c *CPU) branch(pc uint32, taken bool, pol policy) uint64 {
	if pol == functional {
		return 0
	}
	return c.predict(pc, taken, pol)
}

func (c *CPU) predict(pc uint32, taken bool, pol policy) uint64 {
	if c.rp.open != nil {
		c.rp.open.recordBranch(pc, taken)
	}
	if c.BP.Update(pc, taken) || pol == warm {
		return 0
	}
	c.Stats.CPIStack[CycleBranch] += uint64(c.Cfg.MispredictPenalty)
	return uint64(c.Cfg.MispredictPenalty)
}

// dAccess performs the D-cache access for a load (the detailed and warm
// policies) and returns stall cycles (the detailed policy). Stores are
// write-through/no-allocate and charge no stall (write buffer). run
// calls it only when Hit, which it inlines, misses, or while
// ReplayCheck checks a handler activation.
func (c *CPU) dAccess(addr uint32, pol policy) uint64 {
	if c.rp.open != nil {
		c.rp.open.recordLoad(addr)
	}
	if c.DC.Access(addr) {
		return 0
	}
	return c.dMiss(addr, pol)
}

// dMiss fills addr's D-cache line after a miss and returns the stall
// cycles (the detailed policy).
func (c *CPU) dMiss(addr uint32, pol policy) uint64 {
	c.DC.Fill(c.DC.LineBase(addr), nil)
	if pol == warm {
		return 0
	}
	return c.loadStall()
}

// loadStall charges the bus burst of a D-cache line fill and returns
// its stall cycles.
func (c *CPU) loadStall() uint64 {
	stall := c.Mem.Burst(c.Cfg.DCache.LineBytes)
	c.Stats.LoadStalls += uint64(stall)
	c.Stats.CPIStack[CycleLoadStall] += uint64(stall)
	return uint64(stall)
}

func (c *CPU) syscall(r *[32]uint32) error {
	switch r[2] { // $v0
	case isa.SysPrintInt:
		c.print(fmt.Sprintf("%d", int32(r[4])))
	case isa.SysPrintHex:
		c.print(fmt.Sprintf("%#x", r[4]))
	case isa.SysPrintChar:
		c.print(string(rune(r[4] & 0xFF)))
	case isa.SysPrintString:
		addr := r[4]
		var buf []byte
		for i := 0; i < 4096; i++ {
			b := c.Mem.LoadByte(addr + uint32(i))
			if b == 0 {
				break
			}
			buf = append(buf, b)
		}
		c.print(string(buf))
	case isa.SysExit:
		c.halted = true
		c.exitCode = int32(r[4])
	default:
		return fmt.Errorf("cpu: unknown syscall %d at %#x", r[2], c.pc)
	}
	return nil
}

func (c *CPU) print(s string) {
	if c.Out != nil {
		io.WriteString(c.Out, s)
	}
}
