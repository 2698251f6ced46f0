package cpu

import (
	"fmt"
	"io"
	"math"

	"repro/internal/isa"
)

// noLimit disables run's budget or user target.
const noLimit = math.MaxInt64

// run's modes: stop nowhere else, after one step, or before a miss.
const (
	runOn = iota
	runStep
	runToFault
)

// Step fetches, executes and retires one instruction, charging cycles to
// the timing model.
func (c *CPU) Step() error { return c.run(noLimit, noLimit, runStep) }

// budget is the Config.MaxInstr allowance both engines have left.
func (c *CPU) budget() int64 {
	if c.Cfg.MaxInstr == 0 {
		return noLimit
	}
	t := c.Stats.Instrs + c.Stats.HandlerInstrs + c.FStats.Instrs + c.FStats.HandlerInstrs
	return int64(min(c.Cfg.MaxInstr-min(t, c.Cfg.MaxInstr), noLimit))
}

func (c *CPU) budgetError() error {
	return fmt.Errorf("cpu: instruction budget %d exhausted at pc %#x", c.Cfg.MaxInstr, c.pc)
}

// fetch is run's slow path: it returns the predecoded instruction at
// the current PC, or nil when a decompression exception was raised
// instead. With Cfg.DisablePredecode the word is decoded afresh into a
// scratch record every cycle — same loop, reference timing.
func (c *CPU) fetch() (*pinstr, error) {
	pc := c.pc
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
		return p, nil
	}
	slot := c.IC.Lookup(pc)
	if slot < 0 {
		if c.InCompressedRegion(pc) {
			if !c.Cfg.HardwareDecompress {
				return nil, c.raiseDecompress(pc)
			}
			if err := c.hardwareFill(pc); err != nil {
				return nil, err
			}
		} else {
			// Hardware fill from backed memory.
			base := c.IC.LineBase(pc)
			if !c.Mem.Backed(base) {
				return nil, fmt.Errorf("cpu: fetch from unmapped address %#x", pc)
			}
			start := c.Stats.Cycles
			stall := c.fillNative(base)
			c.Stats.Cycles += uint64(stall)
			c.Stats.FetchStalls += uint64(stall)
			c.Stats.CPIStack[CycleFetchStall] += uint64(stall)
			c.Stats.IMissNative++
			if c.Tel != nil {
				c.Tel.IFill(pc, start, uint64(stall), FillNative)
			}
			if c.Prof != nil && !c.inHandler {
				c.Prof.CountMiss(pc)
			}
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
	p := c.slotRecord(pc, slot)
	if c.Cfg.PredecodeCheck {
		w, _ := c.IC.ReadWord(pc)
		if err := c.checkPredecode(p, pc, w); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// sameLine is the fetch fast path: when pc is in the line the last
// fetch resolved and the I-cache has not changed that line since, it
// counts the I-cache hit and returns the record without a tag search.
// It returns nil otherwise (curIdx is never set under DisablePredecode
// or PredecodeCheck, so both always take the full path).
func (c *CPU) sameLine(pc uint32) *pinstr {
	if pc&3 != 0 || pc>>c.lineShift != c.curIdx || !c.IC.Derived(c.curSlot) {
		return nil
	}
	c.IC.Hit(c.curSlot)
	return &c.pcode[c.curSlot*c.wpl+int(pc>>2)&(c.wpl-1)]
}

// hardwareFill models a hardware decompression unit: the compressed
// bytes are fetched over the bus (about half a line for the dictionary
// scheme) and decoded with a fixed latency, then the native line is
// installed — no exception, no handler instructions.
func (c *CPU) hardwareFill(pc uint32) error {
	if c.goldenText == nil {
		return fmt.Errorf("cpu: hardware decompression without decompressed text at %#x", pc)
	}
	base := c.IC.LineBase(pc)
	n := c.Cfg.ICache.LineBytes
	start := c.Stats.Cycles
	stall := c.Mem.Burst(n/2) + c.Cfg.HWDecompressCycles
	c.IC.Fill(base, c.goldenLine(base))
	c.Stats.Cycles += uint64(stall)
	c.Stats.FetchStalls += uint64(stall)
	c.Stats.CPIStack[CycleExcService] += uint64(stall)
	c.Stats.IMissCompressed++
	if c.Tel != nil {
		c.Tel.IFill(pc, start, uint64(stall), FillHardwareDecomp)
	}
	if c.Prof != nil && !c.inHandler {
		c.Prof.CountMiss(pc)
	}
	return nil
}

func (c *CPU) raiseDecompress(pc uint32) error {
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
	c.Stats.Exceptions++
	c.Stats.IMissCompressed++
	c.excStart = c.Stats.Cycles
	if c.Tel != nil {
		c.Tel.ExcEnter(pc, c.excStart)
	}
	c.Stats.Cycles += uint64(c.Cfg.ExceptionEntry)
	c.Stats.CPIStack[CycleExcService] += uint64(c.Cfg.ExceptionEntry)
	if c.Prof != nil {
		c.Prof.CountMiss(pc)
	}
	c.c0[4] = pc    // EPC
	c.c0[5] = pc    // BADVA
	c.c0[6] |= 1    // StatusEXL
	c.lastLoad = -1 // the flush drains the pipeline
	c.inHandler = true
	c.savedBank = c.bank
	if c.c0[6]&2 != 0 { // shadow register file enabled
		c.bank = 1
	}
	c.pc = c.handlerPC
	return nil
}

// run is the detailed engine. It stops when the program halts, after
// the step that spends left (the budget error), once user user
// instructions retired outside the handler, or as mode asks. Handler
// RAM is fetched from hdec directly. pc, lastLoad, the register file,
// inHandler and the counts charged since the last flush live in locals;
// flush writes them back where they are read: the slow fetch path,
// iret, syscall, tracer calls, errors and return. The attribution
// observers (OnKey) are called out only where the locals are already
// flushed; their cut is folded into lim.
func (c *CPU) run(left, user int64, mode int) error {
	if c.halted && mode != runStep {
		return nil
	}
	trace, prof := c.Trace, c.Prof
	pc, lastLoad, inH, r := c.pc, c.lastLoad, c.inHandler, &c.regs[c.bank]
	var cycles, lu, n uint64 // charged since the last flush
	if c.OnKey != nil {
		c.observe()
	}
	c.hdecLen = c.hdecSpan(inH)
	lim := c.limit(left, user, inH, mode == runStep)
	var p *pinstr
	var err error
	for {
		if pc-c.handlerPC < c.hdecLen && pc&3 == 0 {
			p = &c.hdec[(pc-c.handlerPC)>>2]
		} else if p = c.sameLine(pc); p == nil {
			left, user = c.flush(inH, cycles, lu, n, left, user)
			cycles, lu, n, c.pc, c.lastLoad = 0, 0, 0, pc, lastLoad
			if c.OnKey != nil {
				c.observe()
			}
			if mode == runToFault && c.fwouldFault() {
				return nil
			}
			if p, err = c.fetch(); err != nil {
				return err
			}
			if p == nil { // a decompression exception vectored to the handler
				pc, lastLoad, inH, r = c.pc, c.lastLoad, c.inHandler, &c.regs[c.bank]
				if c.OnKey != nil {
					c.observe()
					c.hdecLen = c.hdecSpan(inH)
				}
				if left <= 0 {
					return c.budgetError()
				}
				if mode == runStep {
					return nil
				}
			}
			if lim = c.limit(left, user, inH, mode == runStep); p == nil {
				continue
			}
		}

		// Load-use interlock: a 5-stage pipeline bubbles one cycle when an
		// instruction consumes the value the immediately preceding load
		// produced (MEM -> EX forwarding gap).
		cyc := uint64(1)
		if lastLoad >= 0 && (int(p.srcA) == lastLoad || int(p.srcB) == lastLoad) {
			cyc += uint64(c.Cfg.LoadUsePenalty)
			lu++
		}
		lastLoad = int(p.ldst)
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
			cyc += uint64(c.Cfg.JRPenalty)
			c.Stats.CPIStack[CycleBranch] += uint64(c.Cfg.JRPenalty)
		case pJALR:
			c.setr(r, int(p.rd), pc+4)
			next = r[p.rs]
			cyc += uint64(c.Cfg.JRPenalty)
			c.Stats.CPIStack[CycleBranch] += uint64(c.Cfg.JRPenalty)
			c.countCall(pc, next)
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
			cyc += c.branch(pc, taken)
			if taken {
				next = p.tgt
			}
		case pBGEZ:
			taken := int32(r[p.rs]) >= 0
			cyc += c.branch(pc, taken)
			if taken {
				next = p.tgt
			}

		case pJ:
			next = p.tgt
		case pJAL:
			c.setr(r, 31, pc+4)
			next = p.tgt
			c.countCall(pc, next)

		case pBEQ:
			taken := r[p.rs] == r[p.rt]
			cyc += c.branch(pc, taken)
			if taken {
				next = p.tgt
			}
		case pBNE:
			taken := r[p.rs] != r[p.rt]
			cyc += c.branch(pc, taken)
			if taken {
				next = p.tgt
			}
		case pBLEZ:
			taken := int32(r[p.rs]) <= 0
			cyc += c.branch(pc, taken)
			if taken {
				next = p.tgt
			}
		case pBGTZ:
			taken := int32(r[p.rs]) > 0
			cyc += c.branch(pc, taken)
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
			if !inH {
				err = fmt.Errorf("cpu: iret outside handler at %#x", pc)
				goto fail
			}
			c.inHandler = false
			c.bank = c.savedBank
			c.c0[6] &^= 1
			lastLoad = -1  // redirect drains the pipeline
			next = c.c0[4] // EPC
			cyc += uint64(c.Cfg.IretCycles)
			c.Stats.CPIStack[CycleExcService] += uint64(c.Cfg.IretCycles)
			lim = 0 // close the exception interval below

		case pLB:
			addr := r[p.rs] + p.imm
			cyc += c.dRead(addr)
			c.setr(r, int(p.rt), uint32(int32(int8(c.Mem.LoadByte(addr)))))
		case pLBU:
			addr := r[p.rs] + p.imm
			cyc += c.dRead(addr)
			c.setr(r, int(p.rt), uint32(c.Mem.LoadByte(addr)))
		case pLH:
			addr := r[p.rs] + p.imm
			cyc += c.dRead(addr)
			if addr&1 != 0 {
				err = fmt.Errorf("cpu: unaligned lh at %#x (addr %#x)", pc, addr)
				goto fail
			}
			c.setr(r, int(p.rt), uint32(int32(int16(c.Mem.ReadHalf(addr)))))
		case pLHU:
			addr := r[p.rs] + p.imm
			cyc += c.dRead(addr)
			if addr&1 != 0 {
				err = fmt.Errorf("cpu: unaligned lhu at %#x (addr %#x)", pc, addr)
				goto fail
			}
			c.setr(r, int(p.rt), uint32(c.Mem.ReadHalf(addr)))
		case pLW:
			addr := r[p.rs] + p.imm
			cyc += c.dRead(addr)
			if addr&3 != 0 {
				err = fmt.Errorf("cpu: unaligned lw at %#x (addr %#x)", pc, addr)
				goto fail
			}
			c.setr(r, int(p.rt), c.Mem.ReadWord(addr))

		case pSB:
			addr := r[p.rs] + p.imm
			c.Mem.StoreByte(addr, byte(r[p.rt]))
			c.fstoreData(addr)
		case pSH:
			addr := r[p.rs] + p.imm
			if addr&1 != 0 {
				err = fmt.Errorf("cpu: unaligned sh at %#x (addr %#x)", pc, addr)
				goto fail
			}
			c.Mem.WriteHalf(addr, uint16(r[p.rt]))
			c.fstoreData(addr)
		case pSW:
			addr := r[p.rs] + p.imm
			if addr&3 != 0 {
				err = fmt.Errorf("cpu: unaligned sw at %#x (addr %#x)", pc, addr)
				goto fail
			}
			c.Mem.WriteWord(addr, r[p.rt])
			c.fstoreData(addr)

		case pSWIC:
			addr := r[p.rs] + p.imm
			if addr&3 != 0 {
				err = fmt.Errorf("cpu: unaligned swic at %#x (addr %#x)", pc, addr)
				goto fail
			}
			c.IC.WriteWord(addr, r[p.rt])
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

		cycles += cyc
		n++
		if !inH && prof != nil {
			prof.CountInstr(pc)
		}
		if n < lim {
			if trace != nil { // the tracer sees Stats and PC() as of this commit
				left, user = c.flush(inH, cycles, lu, n, left, user)
				cycles, lu, n, lim, c.pc, c.lastLoad = 0, 0, 0, lim-n, next, lastLoad
				trace(pc, p.raw, inH)
			}
			pc = next
			continue
		}

		// A stop condition may hold, or an iret or syscall ran.
		left, user = c.flush(inH, cycles, lu, n, left, user)
		cycles, lu, n, c.pc, c.lastLoad = 0, 0, 0, next, lastLoad
		if inH && !c.inHandler {
			// This instruction was the iret: close the exception interval.
			lat := c.Stats.Cycles - c.excStart
			c.Stats.ExcCyclesTotal += lat
			if lat > c.Stats.ExcCyclesMax {
				c.Stats.ExcCyclesMax = lat
			}
			if c.Tel != nil {
				c.Tel.ExcReturn(next, c.Stats.Cycles, lat)
			}
		}
		if c.OnKey != nil { // before the tracers, as the commit's first observer
			c.observe()
			c.hdecLen = c.hdecSpan(c.inHandler)
		}
		if trace != nil {
			trace(pc, p.raw, inH)
		}
		inH, r = c.inHandler, &c.regs[c.bank]
		if left <= 0 {
			return c.budgetError()
		}
		if c.halted || mode == runStep || (!inH && user <= 0) {
			return nil
		}
		pc = next
		lim = c.limit(left, user, inH, mode == runStep)
	}

fail:
	c.flush(inH, cycles, lu, n, left, user)
	c.pc, c.lastLoad = pc, lastLoad
	return err
}

// limit is how many retirements after a flush run checks its stops:
// the budget, the user target outside the handler and the observers'
// cut.
func (c *CPU) limit(left, user int64, handler, step bool) uint64 {
	if !handler && user < left {
		left = user
	}
	if step || left < 1 {
		return 1
	}
	if r := c.Stats.Instrs + c.Stats.HandlerInstrs; c.cut > r {
		return min(uint64(left), c.cut-r)
	}
	return uint64(left)
}

// observe calls the attribution observers out and keeps their answer:
// the range for slotRecord, the cut for limit. run checks OnKey before
// calling it, so an unobserved slow path pays one compare.
func (c *CPU) observe() {
	if c.OnKey != nil {
		k := c.OnKey()
		c.keyLo, c.keyHi, c.cut = k.Lo, k.Hi, k.Cut
	}
}

// hdecSpan is the handler-RAM extent run fetches from hdec without a
// callout: none under PredecodeCheck (fetch checks every record), and
// none outside the handler while observers are attached (a user commit
// there is keyed by its own address, so its fetch must call them out).
func (c *CPU) hdecSpan(handler bool) uint32 {
	if c.Cfg.PredecodeCheck || c.OnKey != nil && !handler {
		return 0
	}
	return uint32(len(c.hdec)) * 4
}

// flush adds run's local counts to Stats: cycles, lu load-use
// interlocks and n retirements, all user or all handler. It returns
// the budget and user countdowns moved on by n.
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

func (c *CPU) countCall(from, to uint32) {
	if c.inHandler || c.Prof == nil {
		return
	}
	if cp, ok := c.Prof.(CallProfiler); ok {
		cp.CountCall(from, to)
	}
}

func (c *CPU) setr(r *[32]uint32, rd int, v uint32) {
	if rd != 0 {
		r[rd] = v
	}
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// branch trains the predictor and returns the penalty cycles.
func (c *CPU) branch(pc uint32, taken bool) uint64 {
	if c.BP.Update(pc, taken) {
		return 0
	}
	c.Stats.CPIStack[CycleBranch] += uint64(c.Cfg.MispredictPenalty)
	return uint64(c.Cfg.MispredictPenalty)
}

// dRead performs the D-cache access for a load and returns stall cycles.
// Stores are write-through/no-allocate and charge no stall (write buffer).
func (c *CPU) dRead(addr uint32) uint64 {
	if c.DC.Access(addr) {
		return 0
	}
	stall := c.Mem.Burst(c.Cfg.DCache.LineBytes)
	c.DC.Fill(c.DC.LineBase(addr), nil)
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
