package cpu

import (
	"fmt"
	"io"

	"repro/internal/isa"
)

// Step fetches, executes and retires one instruction, charging cycles to
// the timing model.
func (c *CPU) Step() error {
	p, err := c.fetch()
	if err != nil || p == nil {
		// p == nil: a decompression exception redirected the PC into the
		// handler instead of delivering an instruction.
		return err
	}
	return c.execute(p)
}

// fetch returns the predecoded instruction at the current PC, or nil
// when a decompression exception was raised instead. With
// Cfg.DisablePredecode the word is decoded afresh into a scratch record
// every cycle — same engine, reference timing.
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
	if !c.IC.Access(pc) {
		if c.InCompressedRegion(pc) {
			if c.Cfg.HardwareDecompress {
				if err := c.hardwareFill(pc); err != nil {
					return nil, err
				}
			} else {
				return nil, c.raiseDecompress(pc)
			}
		} else {
			// Hardware fill from backed memory.
			base := c.IC.LineBase(pc)
			if !c.Mem.Backed(base) {
				return nil, fmt.Errorf("cpu: fetch from unmapped address %#x", pc)
			}
			line := make([]byte, c.Cfg.ICache.LineBytes)
			start := c.Stats.Cycles
			stall := c.Mem.ReadBlock(base, line)
			c.IC.Fill(base, line)
			c.predecodeFill(base, line)
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
	}
	if c.Cfg.DisablePredecode {
		w, ok := c.IC.ReadWord(pc)
		if !ok {
			return nil, fmt.Errorf("cpu: internal error: line at %#x vanished", pc)
		}
		c.scratch = decodeInstr(pc, w)
		return &c.scratch, nil
	}
	base := c.IC.LineBase(pc)
	if base != c.curBase {
		ln := c.plineFor(base)
		if ln == nil {
			return nil, fmt.Errorf("cpu: internal error: line at %#x vanished", pc)
		}
		c.curBase, c.curLine = base, ln
	}
	p := &c.curLine[(pc-base)>>2]
	if c.Cfg.PredecodeCheck {
		w, ok := c.IC.ReadWord(pc)
		if !ok {
			return nil, fmt.Errorf("cpu: internal error: line at %#x vanished", pc)
		}
		if err := c.checkPredecode(p, pc, w); err != nil {
			return nil, err
		}
	}
	return p, nil
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
	line := make([]byte, n)
	for i := 0; i < n; i++ {
		a := base + uint32(i)
		if c.goldenText.Contains(a) {
			line[i] = c.goldenText.Data[a-c.goldenText.Base]
		}
	}
	start := c.Stats.Cycles
	stall := c.Mem.Burst(n/2) + c.Cfg.HWDecompressCycles
	c.IC.Fill(base, line)
	c.predecodeFill(base, line)
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

// execute is the single execution engine: both the predecoded fast
// path and the DisablePredecode reference path feed it, so their
// timing cannot diverge.
func (c *CPU) execute(p *pinstr) error {
	r := &c.regs[c.bank]
	pc := c.pc
	next := pc + 4
	cycles := uint64(1)
	wasHandler := c.inHandler // iret clears it mid-instruction

	// Load-use interlock: a 5-stage pipeline bubbles one cycle when an
	// instruction consumes the value the immediately preceding load
	// produced (MEM -> EX forwarding gap).
	if c.lastLoad >= 0 {
		if int(p.srcA) == c.lastLoad || int(p.srcB) == c.lastLoad {
			cycles += uint64(c.Cfg.LoadUsePenalty)
			c.Stats.LoadUseStalls++
			c.Stats.CPIStack[CycleLoadUse] += uint64(c.Cfg.LoadUsePenalty)
		}
	}
	c.lastLoad = int(p.ldst)

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
		cycles += uint64(c.Cfg.JRPenalty)
		c.Stats.CPIStack[CycleBranch] += uint64(c.Cfg.JRPenalty)
	case pJALR:
		c.setr(r, int(p.rd), pc+4)
		next = r[p.rs]
		cycles += uint64(c.Cfg.JRPenalty)
		c.Stats.CPIStack[CycleBranch] += uint64(c.Cfg.JRPenalty)
		c.countCall(pc, next)
	case pSyscall:
		if err := c.syscall(r); err != nil {
			return err
		}
	case pBreak:
		return fmt.Errorf("cpu: break at %#x", pc)
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
		cycles += c.branch(pc, taken)
		if taken {
			next = p.tgt
		}
	case pBGEZ:
		taken := int32(r[p.rs]) >= 0
		cycles += c.branch(pc, taken)
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
		cycles += c.branch(pc, taken)
		if taken {
			next = p.tgt
		}
	case pBNE:
		taken := r[p.rs] != r[p.rt]
		cycles += c.branch(pc, taken)
		if taken {
			next = p.tgt
		}
	case pBLEZ:
		taken := int32(r[p.rs]) <= 0
		cycles += c.branch(pc, taken)
		if taken {
			next = p.tgt
		}
	case pBGTZ:
		taken := int32(r[p.rs]) > 0
		cycles += c.branch(pc, taken)
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
			return fmt.Errorf("cpu: iret outside handler at %#x", pc)
		}
		c.inHandler = false
		c.bank = c.savedBank
		c.c0[6] &^= 1
		c.lastLoad = -1 // redirect drains the pipeline
		next = c.c0[4]  // EPC
		cycles += uint64(c.Cfg.IretCycles)
		c.Stats.CPIStack[CycleExcService] += uint64(c.Cfg.IretCycles)

	case pLB:
		addr := r[p.rs] + p.imm
		cycles += c.dRead(addr)
		c.setr(r, int(p.rt), uint32(int32(int8(c.Mem.LoadByte(addr)))))
	case pLBU:
		addr := r[p.rs] + p.imm
		cycles += c.dRead(addr)
		c.setr(r, int(p.rt), uint32(c.Mem.LoadByte(addr)))
	case pLH:
		addr := r[p.rs] + p.imm
		cycles += c.dRead(addr)
		if addr&1 != 0 {
			return fmt.Errorf("cpu: unaligned lh at %#x (addr %#x)", pc, addr)
		}
		c.setr(r, int(p.rt), uint32(int32(int16(c.Mem.ReadHalf(addr)))))
	case pLHU:
		addr := r[p.rs] + p.imm
		cycles += c.dRead(addr)
		if addr&1 != 0 {
			return fmt.Errorf("cpu: unaligned lhu at %#x (addr %#x)", pc, addr)
		}
		c.setr(r, int(p.rt), uint32(c.Mem.ReadHalf(addr)))
	case pLW:
		addr := r[p.rs] + p.imm
		cycles += c.dRead(addr)
		if addr&3 != 0 {
			return fmt.Errorf("cpu: unaligned lw at %#x (addr %#x)", pc, addr)
		}
		c.setr(r, int(p.rt), c.Mem.ReadWord(addr))

	case pSB:
		addr := r[p.rs] + p.imm
		c.Mem.StoreByte(addr, byte(r[p.rt]))
		c.noteHandlerStore(addr)
	case pSH:
		addr := r[p.rs] + p.imm
		if addr&1 != 0 {
			return fmt.Errorf("cpu: unaligned sh at %#x (addr %#x)", pc, addr)
		}
		c.Mem.WriteHalf(addr, uint16(r[p.rt]))
		c.noteHandlerStore(addr)
	case pSW:
		addr := r[p.rs] + p.imm
		if addr&3 != 0 {
			return fmt.Errorf("cpu: unaligned sw at %#x (addr %#x)", pc, addr)
		}
		c.Mem.WriteWord(addr, r[p.rt])
		c.noteHandlerStore(addr)

	case pSWIC:
		addr := r[p.rs] + p.imm
		if addr&3 != 0 {
			return fmt.Errorf("cpu: unaligned swic at %#x (addr %#x)", pc, addr)
		}
		c.IC.WriteWord(addr, r[p.rt])
		if !c.Cfg.DisablePredecode {
			c.predecodeSwic(addr)
		}
		cycles += uint64(c.Cfg.SwicExtraCycles)
		if wasHandler {
			c.Stats.CPIStack[CycleHandler] += uint64(c.Cfg.SwicExtraCycles)
		} else {
			c.Stats.CPIStack[CycleUser] += uint64(c.Cfg.SwicExtraCycles)
		}

	default:
		return illegalInstrError(p.raw, pc)
	}

	c.Stats.Cycles += cycles
	if wasHandler {
		c.Stats.CPIStack[CycleHandler]++ // the instruction's base cycle
	} else {
		c.Stats.CPIStack[CycleUser]++
	}
	if wasHandler && !c.inHandler {
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
	if wasHandler {
		c.Stats.HandlerInstrs++
	} else {
		c.Stats.Instrs++
		if c.Prof != nil {
			c.Prof.CountInstr(pc)
		}
	}
	// The commit tracers fire after every Stats update for this
	// instruction and after the PC moves on, so a tracer observing Stats
	// (the attribution ledger) sees a consistent snapshot covering
	// exactly the commits delivered so far, and c.PC() is the next
	// instruction's address.
	c.pc = next
	if c.Trace != nil {
		c.Trace(pc, p.raw, wasHandler)
	}
	return nil
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
