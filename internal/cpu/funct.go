package cpu

// The functional fast-forward engine.
//
// The detailed model spends most of its host time on the timing
// machinery: cache lookups, branch-predictor training, stall
// accounting, telemetry hooks. The functional engine executes the same
// architectural semantics with none of that — no caches, no predictor,
// no cycle charging — so a run reaches the same registers, HI/LO,
// memory image, output and exit code while moving many times faster on
// the host. fastpath.Sampled alternates the two engines (SMARTS-style)
// to estimate CPI from detailed measurement windows separated by
// functional fast-forward.
//
// Decompression still happens: the functional engine materialises
// decompressed code words into the functional store (fsWord/fsOK, a
// flat image of the compressed region standing in for the I-cache). A
// fetch inside the compressed region whose word is not yet materialised
// raises the same decompression exception the detailed core would
// (EPC/BADVA/EXL, bank switch, vector to the handler); the handler runs
// functionally and its swic stores land in the store. Because the store
// never evicts, a line faults at most once — the functional engine's
// exception count is a lower bound on the detailed one, which re-faults
// on I-cache evictions. That is why FunctStats is a separate type:
// functional counters are not comparable to timing counters, except
// FunctStats.Instrs, which must equal Stats.Instrs exactly for the same
// program (the equivalence battery pins this).
//
// Dispatch is one loop (frun) around one opcode switch. Code words are
// decoded at most once into flat per-word decode caches — fcdec over
// the compressed region (indexed in lockstep with the functional
// store) and fdec over the native code extent [fdBase,fdEnd) — each
// with a validity byte per word. Every instruction re-validates its
// word before executing, so coherence against self-modifying code is
// O(1): a store or swic that touches a code word clears exactly that
// word's validity (finvalWord) and the next fetch re-decodes it. There
// are no block caches to invalidate and no per-instruction function
// calls on the hot path — an earlier superblock design spent a third
// of its host time in map lookups and block rebuilds; the flat arrays
// removed all of it. Code executing outside both extents (rare:
// programs running code out of data memory) is decoded on every fetch
// and therefore always coherent.
//
// Config.FunctionalWarm selects the second functional mode, SMARTS-style
// functional warming: instead of the flat decode caches, every fetch
// probes (and on a miss fills) the real I-cache, loads touch the
// D-cache, branches train the predictor and swic writes land in the
// I-cache — exactly the state transitions the detailed engine performs,
// minus every cycle charge. A fast-forward interval then leaves the
// caches and predictor precisely where a detailed run would have, which
// is what makes short measurement windows unbiased (fastpath.Sampled
// turns this mode on for its intervals). Warming trades speed for
// fidelity; plain fast-forward keeps the direct-dispatch path.

import "fmt"

// FunctStats counts work done by the functional engine. These are
// architectural counters, not timing ones: there is no cycle column
// because the functional engine charges none.
type FunctStats struct {
	Instrs        uint64 // user instructions retired functionally
	HandlerInstrs uint64 // handler instructions retired functionally
	Exceptions    uint64 // decompression exceptions taken functionally
	Blocks        uint64 // user-mode taken control transfers (diagnostic)
}

// resetFunctional clears all functional-engine state (called from Load).
// The flat stores are allocated lazily on first functional execution
// (fensure) so detailed-only runs never pay for them.
func (c *CPU) resetFunctional() {
	c.fsWord, c.fsOK = nil, nil
	c.fxtra = nil
	c.fcdec, c.fcOK = nil, nil
	c.fdec, c.fdOK = nil, nil
	c.fhdOK = nil
	c.flastExc = 0
	c.fexcRepet = 0
}

// fensure allocates the flat functional stores for the current image
// geometry. The compressed-region decode cache is skipped in warming
// mode (warm fetches go through the real I-cache and its records
// instead); the native one is not, because I-cache refills copy their
// records from it (fillNative).
func (c *CPU) fensure() {
	if c.compEnd > c.compStart {
		n := (c.compEnd - c.compStart) >> 2
		if c.fsWord == nil {
			c.fsWord = make([]uint32, n)
			c.fsOK = make([]uint8, n)
		}
		if !c.Cfg.FunctionalWarm && c.fcdec == nil {
			c.fcdec = make([]pinstr, n)
			c.fcOK = make([]uint8, n)
		}
	}
	c.fdecEnsure()
	if c.hdec != nil && c.fhdOK == nil {
		// The handler predecode is always fully decoded (predecodeHandler
		// builds it eagerly and noteHandlerStore patches it in place), so
		// its validity array is constant all-ones — it exists only so the
		// dispatch loop treats handler RAM as one more decode region.
		c.fhdOK = make([]uint8, len(c.hdec))
		for i := range c.fhdOK {
			c.fhdOK[i] = 1
		}
	}
}

// fdecEnsure allocates the native-extent decode store fdec/fdOK. Both
// engines share it: the functional engine dispatches from it and the
// detailed engine's I-cache refills copy their records out of it.
func (c *CPU) fdecEnsure() {
	if c.fdec == nil && c.fdEnd > c.fdBase {
		n := (c.fdEnd - c.fdBase) >> 2
		c.fdec = make([]pinstr, n)
		c.fdOK = make([]uint8, n)
	}
}

// fsGet returns the materialised functional code word at a. Words
// outside the compressed region (tracked in fxtra) are never visible to
// fetch, matching the detailed engine where such swic stores land in
// I-cache lines that fetch re-fills from memory.
func (c *CPU) fsGet(a uint32) (uint32, bool) {
	if c.fsWord == nil || !c.InCompressedRegion(a) {
		return 0, false
	}
	i := (a - c.compStart) >> 2
	return c.fsWord[i], c.fsOK[i] != 0
}

// fsPut materialises one functional code word (a swic store or a
// hardware-decompressor fill). Overwriting a word with different
// content invalidates its decoded record.
func (c *CPU) fsPut(a, w uint32) {
	if c.InCompressedRegion(a) {
		if c.fsWord == nil {
			n := (c.compEnd - c.compStart) >> 2
			c.fsWord = make([]uint32, n)
			c.fsOK = make([]uint8, n)
		}
		i := (a - c.compStart) >> 2
		if c.fcOK != nil && c.fsOK[i] != 0 && c.fsWord[i] != w {
			c.fcOK[i] = 0
		}
		c.fsWord[i], c.fsOK[i] = w, 1
		return
	}
	if c.fxtra == nil {
		c.fxtra = make(map[uint32]uint32)
	}
	c.fxtra[a] = w
	c.finvalWord(a)
}

// finvalWord drops the decoded record for the word containing addr, if
// any. This is the whole coherence story for self-modifying code: the
// next fetch of that word re-decodes it from its backing store.
func (c *CPU) finvalWord(addr uint32) {
	a := addr &^ 3
	if c.fcOK != nil && c.InCompressedRegion(a) {
		c.fcOK[(a-c.compStart)>>2] = 0
		return
	}
	if c.fdOK != nil && a >= c.fdBase && a < c.fdEnd {
		c.fdOK[(a-c.fdBase)>>2] = 0
	}
}

// FStoreSnapshot returns a copy of the functionally materialised code
// words (address -> word). The equivalence battery compares every entry
// against the golden decompressed text.
func (c *CPU) FStoreSnapshot() map[uint32]uint32 {
	out := make(map[uint32]uint32, len(c.fxtra))
	for i, ok := range c.fsOK {
		if ok != 0 {
			out[c.compStart+uint32(i)<<2] = c.fsWord[i]
		}
	}
	for a, w := range c.fxtra {
		out[a] = w
	}
	return out
}

// UserReg returns register r of the user (non-shadow) file, regardless
// of the active bank. Final-state comparisons use it so a machine that
// halts inside the handler is still comparable.
func (c *CPU) UserReg(r int) uint32 { return c.regs[0][r] }

// runFunctional is Run for Config.Functional: the whole program
// executes on the functional engine.
func (c *CPU) runFunctional() (int32, error) {
	if _, _, err := c.frun(^uint64(0), false); err != nil {
		return -1, err
	}
	return c.exitCode, nil
}

// RunFunctionalFor retires at least n user instructions on the
// functional engine, then continues until the machine is outside the
// decompression handler (an engine switch must never split a handler
// activation: the detailed engine would see a half-decompressed line).
// It reports whether the program halted.
func (c *CPU) RunFunctionalFor(n uint64) (bool, error) {
	c.flastExc, c.fexcRepet = 0, 0
	halted, _, err := c.frun(n, false)
	return halted, err
}

// fwouldFault reports whether the next fetch would miss the I-cache —
// a decompression event (software exception or hardware decompressor
// fill) in the compressed region, or a hardware line fill in the native
// region. Both are the rare, individually expensive events whose cost
// the sampled driver charges exactly on the detailed engine instead of
// extrapolating. Pure probe — no state is touched.
func (c *CPU) fwouldFault() bool {
	pc := c.pc
	if c.inHandler || pc&3 != 0 {
		return false
	}
	if pc>>c.lineShift == c.curIdx && c.IC.Derived(c.curSlot) {
		return false // the same-line fast path's line is resident
	}
	return !c.inHandlerRAM(pc) && !c.IC.Probe(pc)
}

// RunFunctionalSampled is the sampled driver's fast-forward: it retires
// up to n user instructions on the warming functional engine but stops
// — before any state changes — whenever the next fetch would be a
// decompression event. The driver then services that event on the
// detailed engine (RunDetailedBurst), so every exception burst in a
// sampled run is measured exactly rather than estimated; only the
// steady-state user instructions between events are fast-forwarded.
// Requires Config.FunctionalWarm. Returns (halted, pending): pending
// means a decompression event is due at the current PC.
func (c *CPU) RunFunctionalSampled(n uint64) (bool, bool, error) {
	c.flastExc, c.fexcRepet = 0, 0
	return c.frun(n, true)
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
// which after a functional period does not exist. It reports whether
// the program halted.
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
		if c.fwouldFault() {
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

// frun is the functional interpreter: one loop, one opcode switch,
// every functional mode. It retires up to `user` user instructions,
// then keeps going until the machine is outside the handler (handler
// instructions never count against the user budget). stopOnFault (the
// sampled driver) returns control — pending=true — before any state
// changes whenever the next fetch would be a decompression event; it
// requires Config.FunctionalWarm.
//
// Fetch resolves through one of five sources, in order: the handler
// predecode inside the handler; the warming path (real I-cache and
// its slot records) under Config.FunctionalWarm; the compressed-region
// decode cache; the native-extent decode cache; a per-fetch decode for
// code executing anywhere else.
func (c *CPU) frun(user uint64, stopOnFault bool) (bool, bool, error) {
	c.fensure()
	var retired uint64
	left := c.budget() // remaining MaxInstr allowance (noLimit when unbounded)
	if left <= 0 {
		return false, false, c.budgetError()
	}
	budget := uint64(left)
	warm := c.Cfg.FunctionalWarm
	slow := warm || stopOnFault
	pc := c.pc

	// The current decode region: a flat predecode array the PC is
	// streaming through (the compressed region, the native extent, or
	// handler RAM). While the PC stays inside it, the fetch prologue is
	// two compares and a validity-byte load; everything else — region
	// transitions, decompression exceptions, code outside any extent —
	// funnels through the resolver below. decBytes == 0 means "no
	// region": every fetch resolves cold.
	var dec []pinstr
	var decOK []uint8
	var decBase, decBytes uint32
	var decComp, decHandler bool

	for !c.halted {
		// Fetch.
		var p *pinstr
		wasHandler := false
		if slow {
			if stopOnFault {
				c.pc = pc
				if c.fwouldFault() {
					return false, true, nil
				}
			}
			if pc&3 != 0 {
				c.pc = pc
				return false, false, fmt.Errorf("cpu: unaligned fetch at %#x", pc)
			}
			if c.inHandler || c.inHandlerRAM(pc) {
				wasHandler = c.inHandler
				if c.hdec != nil && c.inHandlerRAM(pc) {
					p = &c.hdec[(pc-c.handlerPC)>>2]
				} else {
					c.pc = pc
					q, ok, err := c.ffetch(pc)
					if err != nil {
						return false, false, err
					}
					if !ok { // hardware fill materialised the word; retry
						pc = c.pc
						continue
					}
					p = q
				}
			} else {
				c.pc = pc
				q, err := c.ffetchWarm(pc)
				if err != nil {
					return false, false, err
				}
				if q == nil { // a decompression exception redirected the PC
					pc = c.pc
					continue
				}
				p = q
			}
		} else if off := pc - decBase; off < decBytes && off&3 == 0 {
			i := off >> 2
			if decOK[i] != 0 {
				p = &dec[i]
			} else if decComp {
				if c.fsOK[i] == 0 {
					c.pc = pc
					if err := c.fraiseDecompress(pc); err != nil {
						return false, false, err
					}
					pc = c.pc
					decBytes = 0 // the PC moved to the handler region
					continue
				}
				dec[i] = decodeInstr(pc, c.fsWord[i])
				decOK[i] = 1
				p = &dec[i]
			} else {
				if !c.Mem.Backed(pc) {
					c.pc = pc
					return false, false, fmt.Errorf("cpu: fetch from unmapped address %#x", pc)
				}
				dec[i] = decodeInstr(pc, c.Mem.ReadWord(pc))
				decOK[i] = 1
				p = &dec[i]
			}
			wasHandler = decHandler
		} else {
			// Region resolver: the PC left the current region (or there
			// was none). Pick the region containing pc, or fall back to a
			// cold single fetch for code outside every extent.
			if pc&3 != 0 {
				c.pc = pc
				return false, false, fmt.Errorf("cpu: unaligned fetch at %#x", pc)
			}
			decBytes = 0
			if c.inHandler || c.inHandlerRAM(pc) {
				wasHandler = c.inHandler
				if c.hdec != nil && c.inHandlerRAM(pc) {
					dec, decOK = c.hdec, c.fhdOK
					decBase, decBytes = c.handlerPC, c.handlerEnd-c.handlerPC
					decComp, decHandler = false, c.inHandler
					p = &dec[(pc-decBase)>>2]
				} else {
					c.pc = pc
					q, ok, err := c.ffetch(pc)
					if err != nil {
						return false, false, err
					}
					if !ok { // exception or hardware fill redirected/filled
						pc = c.pc
						continue
					}
					p = q
				}
			} else if c.InCompressedRegion(pc) {
				dec, decOK = c.fcdec, c.fcOK
				decBase, decBytes = c.compStart, c.compEnd-c.compStart
				decComp, decHandler = true, false
				continue // re-enter the fast path with the new region
			} else if pc >= c.fdBase && pc < c.fdEnd {
				dec, decOK = c.fdec, c.fdOK
				decBase, decBytes = c.fdBase, c.fdEnd-c.fdBase
				decComp, decHandler = false, false
				continue
			} else {
				wasHandler = c.inHandler
				if !c.Mem.Backed(pc) {
					c.pc = pc
					return false, false, fmt.Errorf("cpu: fetch from unmapped address %#x", pc)
				}
				c.scratch = decodeInstr(pc, c.Mem.ReadWord(pc))
				p = &c.scratch
			}
		}

		// Execute: architectural semantics only — no cycles, no caches,
		// no predictor, no telemetry, no profilers.
		r := &c.regs[c.bank]
		next := pc + 4

		switch p.op {
		case pSLL:
			c.setr(r, int(p.rd), r[p.rt]<<p.shamt)
		case pSRL:
			c.setr(r, int(p.rd), r[p.rt]>>p.shamt)
		case pSRA:
			c.setr(r, int(p.rd), uint32(int32(r[p.rt])>>p.shamt))
		case pSLLV:
			c.setr(r, int(p.rd), r[p.rt]<<(r[p.rs]&31))
		case pSRLV:
			c.setr(r, int(p.rd), r[p.rt]>>(r[p.rs]&31))
		case pSRAV:
			c.setr(r, int(p.rd), uint32(int32(r[p.rt])>>(r[p.rs]&31)))
		case pJR:
			next = r[p.rs]
		case pJALR:
			c.setr(r, int(p.rd), pc+4)
			next = r[p.rs]
		case pSyscall:
			if err := c.syscall(r); err != nil {
				c.pc = pc
				return false, false, err
			}
		case pBreak:
			c.pc = pc
			return false, false, fmt.Errorf("cpu: break at %#x", pc)
		case pMFHI:
			c.setr(r, int(p.rd), c.hi)
		case pMFLO:
			c.setr(r, int(p.rd), c.lo)
		case pMULT:
			prod := int64(int32(r[p.rs])) * int64(int32(r[p.rt]))
			c.lo, c.hi = uint32(prod), uint32(prod>>32)
		case pMULTU:
			prod := uint64(r[p.rs]) * uint64(r[p.rt])
			c.lo, c.hi = uint32(prod), uint32(prod>>32)
		case pDIV:
			if r[p.rt] != 0 {
				c.lo = uint32(int32(r[p.rs]) / int32(r[p.rt]))
				c.hi = uint32(int32(r[p.rs]) % int32(r[p.rt]))
			}
		case pDIVU:
			if r[p.rt] != 0 {
				c.lo = r[p.rs] / r[p.rt]
				c.hi = r[p.rs] % r[p.rt]
			}
		case pADD:
			c.setr(r, int(p.rd), r[p.rs]+r[p.rt])
		case pSUB:
			c.setr(r, int(p.rd), r[p.rs]-r[p.rt])
		case pAND:
			c.setr(r, int(p.rd), r[p.rs]&r[p.rt])
		case pOR:
			c.setr(r, int(p.rd), r[p.rs]|r[p.rt])
		case pXOR:
			c.setr(r, int(p.rd), r[p.rs]^r[p.rt])
		case pNOR:
			c.setr(r, int(p.rd), ^(r[p.rs] | r[p.rt]))
		case pSLT:
			c.setr(r, int(p.rd), b2u(int32(r[p.rs]) < int32(r[p.rt])))
		case pSLTU:
			c.setr(r, int(p.rd), b2u(r[p.rs] < r[p.rt]))

		case pBLTZ:
			taken := int32(r[p.rs]) < 0
			if warm {
				c.fwarmBranch(pc, taken)
			}
			if taken {
				next = p.tgt
			}
		case pBGEZ:
			taken := int32(r[p.rs]) >= 0
			if warm {
				c.fwarmBranch(pc, taken)
			}
			if taken {
				next = p.tgt
			}
		case pJ:
			next = p.tgt
		case pJAL:
			c.setr(r, 31, pc+4)
			next = p.tgt
		case pBEQ:
			taken := r[p.rs] == r[p.rt]
			if warm {
				c.fwarmBranch(pc, taken)
			}
			if taken {
				next = p.tgt
			}
		case pBNE:
			taken := r[p.rs] != r[p.rt]
			if warm {
				c.fwarmBranch(pc, taken)
			}
			if taken {
				next = p.tgt
			}
		case pBLEZ:
			taken := int32(r[p.rs]) <= 0
			if warm {
				c.fwarmBranch(pc, taken)
			}
			if taken {
				next = p.tgt
			}
		case pBGTZ:
			taken := int32(r[p.rs]) > 0
			if warm {
				c.fwarmBranch(pc, taken)
			}
			if taken {
				next = p.tgt
			}

		case pADDI:
			c.setr(r, int(p.rt), r[p.rs]+p.imm)
		case pSLTI:
			c.setr(r, int(p.rt), b2u(int32(r[p.rs]) < int32(p.imm)))
		case pSLTIU:
			c.setr(r, int(p.rt), b2u(r[p.rs] < p.imm))
		case pANDI:
			c.setr(r, int(p.rt), r[p.rs]&p.imm)
		case pORI:
			c.setr(r, int(p.rt), r[p.rs]|p.imm)
		case pXORI:
			c.setr(r, int(p.rt), r[p.rs]^p.imm)
		case pLUI:
			c.setr(r, int(p.rt), p.imm)

		case pMFC0:
			c.setr(r, int(p.rt), c.c0[p.rd])
		case pMTC0:
			c.c0[p.rd] = r[p.rt]
		case pIRET:
			if !c.inHandler {
				c.pc = pc
				return false, false, fmt.Errorf("cpu: iret outside handler at %#x", pc)
			}
			c.inHandler = false
			c.bank = c.savedBank
			c.c0[6] &^= 1
			next = c.c0[4] // EPC

		case pLB:
			addr := r[p.rs] + p.imm
			if warm {
				c.fwarmLoad(addr)
			}
			c.setr(r, int(p.rt), uint32(int32(int8(c.Mem.LoadByte(addr)))))
		case pLBU:
			addr := r[p.rs] + p.imm
			if warm {
				c.fwarmLoad(addr)
			}
			c.setr(r, int(p.rt), uint32(c.Mem.LoadByte(addr)))
		case pLH:
			addr := r[p.rs] + p.imm
			if warm {
				c.fwarmLoad(addr)
			}
			if addr&1 != 0 {
				c.pc = pc
				return false, false, fmt.Errorf("cpu: unaligned lh at %#x (addr %#x)", pc, addr)
			}
			c.setr(r, int(p.rt), uint32(int32(int16(c.Mem.ReadHalf(addr)))))
		case pLHU:
			addr := r[p.rs] + p.imm
			if warm {
				c.fwarmLoad(addr)
			}
			if addr&1 != 0 {
				c.pc = pc
				return false, false, fmt.Errorf("cpu: unaligned lhu at %#x (addr %#x)", pc, addr)
			}
			c.setr(r, int(p.rt), uint32(c.Mem.ReadHalf(addr)))
		case pLW:
			addr := r[p.rs] + p.imm
			if warm {
				c.fwarmLoad(addr)
			}
			if addr&3 != 0 {
				c.pc = pc
				return false, false, fmt.Errorf("cpu: unaligned lw at %#x (addr %#x)", pc, addr)
			}
			c.setr(r, int(p.rt), c.Mem.ReadWord(addr))

		case pSB:
			addr := r[p.rs] + p.imm
			c.Mem.StoreByte(addr, byte(r[p.rt]))
			c.fstoreData(addr)
		case pSH:
			addr := r[p.rs] + p.imm
			if addr&1 != 0 {
				c.pc = pc
				return false, false, fmt.Errorf("cpu: unaligned sh at %#x (addr %#x)", pc, addr)
			}
			c.Mem.WriteHalf(addr, uint16(r[p.rt]))
			c.fstoreData(addr)
		case pSW:
			addr := r[p.rs] + p.imm
			if addr&3 != 0 {
				c.pc = pc
				return false, false, fmt.Errorf("cpu: unaligned sw at %#x (addr %#x)", pc, addr)
			}
			c.Mem.WriteWord(addr, r[p.rt])
			c.fstoreData(addr)

		case pSWIC:
			addr := r[p.rs] + p.imm
			if addr&3 != 0 {
				c.pc = pc
				return false, false, fmt.Errorf("cpu: unaligned swic at %#x (addr %#x)", pc, addr)
			}
			v := r[p.rt]
			if c.Cfg.FunctionalBreak && c.inHandler {
				// Deliberate fault injection for the equivalence battery's
				// negative control: corrupt the materialised stream.
				v ^= 4
			}
			if warm {
				c.IC.WriteWord(addr, v)
			}
			c.fsPut(addr, v)

		default:
			c.pc = pc
			return false, false, illegalInstrError(p.raw, pc)
		}

		// Retire.
		if wasHandler {
			c.FStats.HandlerInstrs++
		} else {
			c.FStats.Instrs++
			retired++
			if next != pc+4 && !warm {
				c.FStats.Blocks++
			}
		}
		pc = next
		budget--
		if budget == 0 {
			c.pc = pc
			return false, false, fmt.Errorf("cpu: instruction budget %d exhausted at pc %#x",
				c.Cfg.MaxInstr, pc)
		}
		if retired >= user && !c.inHandler {
			break
		}
	}
	c.pc = pc
	return c.halted, false, nil
}

// ffetchWarm is the detailed fetch path stripped of its timing: same
// I-cache accesses, fills and predecoded records, no cycles, no stall
// counters, no telemetry. A nil, nil return means a decompression
// exception was raised instead of delivering an instruction.
func (c *CPU) ffetchWarm(pc uint32) (*pinstr, error) {
	if p := c.sameLine(pc); p != nil {
		return p, nil
	}
	slot := c.IC.Lookup(pc)
	if slot < 0 {
		if c.InCompressedRegion(pc) {
			if !c.Cfg.HardwareDecompress {
				return nil, c.fraiseDecompress(pc)
			}
			if err := c.fhardwareFillWarm(pc); err != nil {
				return nil, err
			}
		} else {
			base := c.IC.LineBase(pc)
			if !c.Mem.Backed(base) {
				return nil, fmt.Errorf("cpu: fetch from unmapped address %#x", pc)
			}
			c.fillNative(base)
		}
		if slot = c.IC.Slot(pc); slot < 0 {
			return nil, fmt.Errorf("cpu: internal error: line at %#x vanished", pc)
		}
	}
	if c.Cfg.DisablePredecode {
		w, _ := c.IC.ReadWord(pc) // present: slot >= 0
		c.scratch = decodeInstr(pc, w)
		return &c.scratch, nil
	}
	return c.slotRecord(pc, slot), nil
}

// fhardwareFillWarm is hardwareFill without the cycle charges: the
// native line is built from golden text and installed in the I-cache;
// the words are also materialised into the functional store so the
// equivalence oracle sees them.
func (c *CPU) fhardwareFillWarm(pc uint32) error {
	if c.goldenText == nil {
		return fmt.Errorf("cpu: hardware decompression without decompressed text at %#x", pc)
	}
	base := c.IC.LineBase(pc)
	c.IC.Fill(base, c.goldenLine(base))
	return c.fhardwareFill(pc)
}

// fwarmLoad is dRead without the stall charge: in warming mode a load
// touches the D-cache and fills it on a miss. Callers guard on
// Cfg.FunctionalWarm so the plain fast-forward path pays no call.
func (c *CPU) fwarmLoad(addr uint32) {
	if !c.DC.Access(addr) {
		c.DC.Fill(c.DC.LineBase(addr), nil)
	}
}

// fwarmBranch trains the branch predictor in warming mode; callers
// guard on Cfg.FunctionalWarm.
func (c *CPU) fwarmBranch(pc uint32, taken bool) {
	c.BP.Update(pc, taken)
}

// ffetch decodes the instruction word at pc for the functional engine's
// cold fetch cases (handler execution, including with DisablePredecode).
// ok is false when a decompression exception or hardware fill was taken
// instead (the PC may now point into the handler).
func (c *CPU) ffetch(pc uint32) (*pinstr, bool, error) {
	switch {
	case c.inHandlerRAM(pc):
		if c.hdec != nil {
			return &c.hdec[(pc-c.handlerPC)>>2], true, nil
		}
		c.scratch = decodeInstr(pc, c.Mem.ReadWord(pc))
		return &c.scratch, true, nil
	case c.InCompressedRegion(pc):
		w, ok := c.fsGet(pc)
		if !ok {
			return nil, false, c.fraiseDecompress(pc)
		}
		c.scratch = decodeInstr(pc, w)
		return &c.scratch, true, nil
	default:
		if !c.Mem.Backed(pc) {
			return nil, false, fmt.Errorf("cpu: fetch from unmapped address %#x", pc)
		}
		c.scratch = decodeInstr(pc, c.Mem.ReadWord(pc))
		return &c.scratch, true, nil
	}
}

// fraiseDecompress is the functional decompression exception: identical
// architectural effects to raiseDecompress, no cycle charges. In
// hardware-decompress mode the line is materialised directly instead.
func (c *CPU) fraiseDecompress(pc uint32) error {
	if c.Cfg.HardwareDecompress {
		return c.fhardwareFill(pc)
	}
	if c.inHandler {
		return fmt.Errorf("cpu: nested decompression exception at %#x", pc)
	}
	if pc == c.flastExc && c.FStats.Exceptions > 0 {
		c.fexcRepet++
		if c.fexcRepet >= 2 {
			return fmt.Errorf("cpu: handler failed to fill line for %#x (repeated exception)", pc)
		}
	} else {
		c.flastExc, c.fexcRepet = pc, 0
	}
	c.FStats.Exceptions++
	c.c0[4] = pc // EPC
	c.c0[5] = pc // BADVA
	c.c0[6] |= 1 // StatusEXL
	c.inHandler = true
	c.savedBank = c.bank
	if c.c0[6]&2 != 0 { // shadow register file enabled
		c.bank = 1
	}
	c.pc = c.handlerPC
	return nil
}

// fhardwareFill materialises one I-cache-line-sized chunk of golden
// text into the functional store (the functional mirror of
// hardwareFill).
func (c *CPU) fhardwareFill(pc uint32) error {
	if c.goldenText == nil {
		return fmt.Errorf("cpu: hardware decompression without decompressed text at %#x", pc)
	}
	base := c.IC.LineBase(pc)
	for i := 0; i < c.Cfg.ICache.LineBytes; i += 4 {
		a := base + uint32(i)
		var w uint32
		for b := 0; b < 4; b++ {
			if c.goldenText.Contains(a + uint32(b)) {
				w |= uint32(c.goldenText.Data[a+uint32(b)-c.goldenText.Base]) << (8 * b)
			}
		}
		c.fsPut(a, w)
	}
	return nil
}

// fstoreData performs a data store's coherence work for both engines:
// handler-RAM predecode patching and decode-cache invalidation of the
// stored-to word — O(1) per store, in contrast to the old superblock
// design's global invalidation. The invalidation also keeps fdec true
// to memory for the detailed engine's refills (fillNative).
func (c *CPU) fstoreData(addr uint32) {
	c.noteHandlerStore(addr)
	c.finvalWord(addr)
}
