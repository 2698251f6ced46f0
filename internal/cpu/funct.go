// Code generated by loopgen from run in exec.go; DO NOT EDIT.

package cpu

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"repro/internal/isa"
)

// runWarm is run compiled for the warm policy.
func (c *CPU) runWarm(left, user int64, mode int) error {
	const pol = warm
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

// runFunctional is run compiled for the functional policy.
func (c *CPU) runFunctional(left, user int64, mode int) error {
	const pol = functional
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

// coreFunctional is run's execute switch compiled as a leaf for the
// functional policy, generated by loopgen from run's own switch. From
// pc it executes the records of the window (base, rec) with register
// file r, in the handler when inH, while n, the retirements since the
// loop's last flush, is below lim. It gives control back at a pc
// outside the window or an undecoded record, and before any state
// changes at an access the loop must refuse or an op only the loop
// runs: pSyscall, pBreak, pIRET and every op the switch does not name.
// It returns the pc, n and the last load destination.
func (c *CPU) coreFunctional(pc, base uint32, rec []pinstr, r *[32]uint32, inH bool, lastLoad int, n, lim uint64) (uint32, uint64, int) {
	for ; n < lim; n++ {
		i := bits.RotateLeft32(pc-base, -2)
		if uint(i) >= uint(len(rec)) || rec[i].op == pUndecoded {
			break
		}
		p := &rec[i]
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
		case pJALR:
			c.setr(r, int(p.rd), pc+4)
			next = r[p.rs&31]
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
			if taken {
				next = p.imm
			}
		case pBGEZ:
			taken := int32(r[p.rs&31]) >= 0
			if taken {
				next = p.imm
			}
		case pJ:
			next = p.imm
		case pJAL:
			c.setr(r, 31, pc+4)
			next = p.imm
		case pBEQ:
			taken := r[p.rs&31] == r[p.rt&31]
			if taken {
				next = p.imm
			}
		case pBNE:
			taken := r[p.rs&31] != r[p.rt&31]
			if taken {
				next = p.imm
			}
		case pBLEZ:
			taken := int32(r[p.rs&31]) <= 0
			if taken {
				next = p.imm
			}
		case pBGTZ:
			taken := int32(r[p.rs&31]) > 0
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
		case pLB:
			addr := r[p.rs&31] + p.imm
			if b := c.Mem.Cached(addr); len(b) > 0 {
				c.setr(r, int(p.rt), uint32(int32(int8(b[0]))))
			} else {
				c.setr(r, int(p.rt), uint32(int32(int8(c.Mem.LoadByte(addr)))))
			}
		case pLBU:
			addr := r[p.rs&31] + p.imm
			if b := c.Mem.Cached(addr); len(b) > 0 {
				c.setr(r, int(p.rt), uint32(b[0]))
			} else {
				c.setr(r, int(p.rt), uint32(c.Mem.LoadByte(addr)))
			}
		case pLH:
			addr := r[p.rs&31] + p.imm
			if addr&1 != 0 {
				return pc, n, lastLoad
			}
			if b := c.Mem.Cached(addr); len(b) >= 2 {
				c.setr(r, int(p.rt), uint32(int32(int16(binary.LittleEndian.Uint16(b)))))
			} else {
				c.setr(r, int(p.rt), uint32(int32(int16(c.Mem.ReadHalf(addr)))))
			}
		case pLHU:
			addr := r[p.rs&31] + p.imm
			if addr&1 != 0 {
				return pc, n, lastLoad
			}
			if b := c.Mem.Cached(addr); len(b) >= 2 {
				c.setr(r, int(p.rt), uint32(binary.LittleEndian.Uint16(b)))
			} else {
				c.setr(r, int(p.rt), uint32(c.Mem.ReadHalf(addr)))
			}
		case pLW:
			addr := r[p.rs&31] + p.imm
			if addr&3 != 0 {
				return pc, n, lastLoad
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
					return pc, n, lastLoad
				}
				c.fstoreData(addr)
			}
		case pSH:
			addr := r[p.rs&31] + p.imm
			if addr&1 != 0 {
				return pc, n, lastLoad
			}
			if b := c.Mem.Cached(addr); len(b) >= 2 && c.plainStore(addr) {
				binary.LittleEndian.PutUint16(b, uint16(r[p.rt&31]))
			} else {
				if !c.Mem.WriteHalf(addr, uint16(r[p.rt&31])) {
					return pc, n, lastLoad
				}
				c.fstoreData(addr)
			}
		case pSW:
			addr := r[p.rs&31] + p.imm
			if addr&3 != 0 {
				return pc, n, lastLoad
			}
			if b := c.Mem.Cached(addr); len(b) >= 4 && c.plainStore(addr) {
				binary.LittleEndian.PutUint32(b, r[p.rt&31])
			} else {
				if !c.Mem.WriteWord(addr, r[p.rt&31]) {
					return pc, n, lastLoad
				}
				c.fstoreData(addr)
			}
		case pSWIC:
			addr := r[p.rs&31] + p.imm
			if addr&3 != 0 {
				return pc, n, lastLoad
			}
			v := r[p.rt&31]
			if c.Cfg.FunctionalBreak && inH {
				v ^= 4
			}
			c.fsPut(addr, v)
		default:
			return pc, n, lastLoad
		}
		pc = next
	}
	return pc, n, lastLoad
}
