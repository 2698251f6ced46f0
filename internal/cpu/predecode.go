package cpu

import (
	"encoding/binary"
	"fmt"

	"repro/internal/isa"
)

// The predecoded-instruction cache.
//
// The paper's premise is that decompression cost is paid once per
// I-cache fill while steady-state execution runs at native speed; the
// simulator mirrors that structure on the host axis. Every line is
// decoded into pinstr records once per change of its I-cache contents
// — a hardware fill, a hardware decompression, a handler swic — and
// the detailed loop (run) dispatches on a dense opcode instead of
// re-extracting isa fields from the raw word.
//
// The records live with the line: I-cache slot s (cache.Cache numbers
// its lines set*ways+way) owns pcode[s*wpl : (s+1)*wpl]. Coherence rule:
// a slot's records may be read only while the cache's derived bit for
// the slot is set, and the cache clears that bit on every change to the
// line's identity or contents (fill, swic claim or write, store update,
// invalidate, flush, restore). The CPU sets the bit after decoding, so
// no CPU-side hook has to observe the changes. A slot whose bit is
// clear is decoded from the cache's bytes on its next fetch
// (slotRecord), so a line the decompressor writes word by word is
// decoded once, not once per word. Native refills copy their records
// from the functional engine's per-address decode store (fdec), which
// every store keeps coherent with memory (fstoreData), so a line that
// returns after an eviction is not decoded again. Fetches that stay in
// the last resolved line skip the tag search altogether (sameLine).
// Handler RAM is not cached, so it is predecoded once at Load and
// patched on stores into [handlerPC, handlerEnd) (noteHandlerStore).
//
// Config.PredecodeCheck turns every fetch into a coherence oracle
// (cached record vs a fresh decode of the backing word);
// Config.DisablePredecode forces the reference decode-every-cycle
// path. Both only change the fetch: the same detailed loop executes
// the records, so the timing model cannot drift between them.

// pop is the dense dispatch opcode of a predecoded instruction.
type pop uint8

const (
	pIllegal pop = iota
	pSLL
	pSRL
	pSRA
	pSLLV
	pSRLV
	pSRAV
	pJR
	pJALR
	pSyscall
	pBreak
	pMFHI
	pMFLO
	pMULT
	pMULTU
	pDIV
	pDIVU
	pADD
	pSUB
	pAND
	pOR
	pXOR
	pNOR
	pSLT
	pSLTU
	pBLTZ
	pBGEZ
	pJ
	pJAL
	pBEQ
	pBNE
	pBLEZ
	pBGTZ
	pADDI
	pSLTI
	pSLTIU
	pANDI
	pORI
	pXORI
	pLUI
	pMFC0
	pMTC0
	pIRET
	pLB
	pLBU
	pLH
	pLHU
	pLW
	pSB
	pSH
	pSW
	pSWIC
)

// pinstr is one predecoded instruction. It is a plain comparable value
// (PredecodeCheck relies on ==) holding everything the execution loops
// need without touching the raw encoding: operand register numbers,
// the load-use hazard sources, the op-specific immediate and the
// absolute control-flow target (both computable at decode time because
// a record is bound to its address).
type pinstr struct {
	op    pop
	rs    uint8
	rt    uint8
	rd    uint8 // pre-masked to 0..7 for mfc0/mtc0
	shamt uint8
	srcA  int8 // isa.SrcRegs, for the load-use interlock
	srcB  int8
	ldst  int8   // isa.LoadDest
	imm   uint32 // op-specific: sign- or zero-extended, or lui value
	tgt   uint32 // absolute branch/jump target
	raw   uint32 // original encoding (tracing, errors, coherence check)
}

// decodeInstr decodes the word at pc into a predecoded record. It is
// total: unrecognised encodings yield pIllegal and the execution loops
// reconstruct the legacy error text from raw.
func decodeInstr(pc, w uint32) pinstr {
	a, b := isa.SrcRegs(w)
	p := pinstr{
		rs:    uint8(isa.Rs(w)),
		rt:    uint8(isa.Rt(w)),
		rd:    uint8(isa.Rd(w)),
		shamt: uint8(isa.Shamt(w)),
		srcA:  int8(a),
		srcB:  int8(b),
		ldst:  int8(isa.LoadDest(w)),
		raw:   w,
	}
	switch isa.Op(w) {
	case isa.OpSpecial:
		switch isa.Funct(w) {
		case isa.FnSLL:
			p.op = pSLL
		case isa.FnSRL:
			p.op = pSRL
		case isa.FnSRA:
			p.op = pSRA
		case isa.FnSLLV:
			p.op = pSLLV
		case isa.FnSRLV:
			p.op = pSRLV
		case isa.FnSRAV:
			p.op = pSRAV
		case isa.FnJR:
			p.op = pJR
		case isa.FnJALR:
			p.op = pJALR
		case isa.FnSYSCALL:
			p.op = pSyscall
		case isa.FnBREAK:
			p.op = pBreak
		case isa.FnMFHI:
			p.op = pMFHI
		case isa.FnMFLO:
			p.op = pMFLO
		case isa.FnMULT:
			p.op = pMULT
		case isa.FnMULTU:
			p.op = pMULTU
		case isa.FnDIV:
			p.op = pDIV
		case isa.FnDIVU:
			p.op = pDIVU
		case isa.FnADD, isa.FnADDU:
			p.op = pADD
		case isa.FnSUB, isa.FnSUBU:
			p.op = pSUB
		case isa.FnAND:
			p.op = pAND
		case isa.FnOR:
			p.op = pOR
		case isa.FnXOR:
			p.op = pXOR
		case isa.FnNOR:
			p.op = pNOR
		case isa.FnSLT:
			p.op = pSLT
		case isa.FnSLTU:
			p.op = pSLTU
		}
	case isa.OpRegImm:
		switch isa.Rt(w) {
		case isa.RtBLTZ:
			p.op = pBLTZ
		case isa.RtBGEZ:
			p.op = pBGEZ
		}
		p.tgt = isa.BranchTarget(pc, w)
	case isa.OpJ:
		p.op, p.tgt = pJ, isa.JumpTarget(pc, w)
	case isa.OpJAL:
		p.op, p.tgt = pJAL, isa.JumpTarget(pc, w)
	case isa.OpBEQ:
		p.op, p.tgt = pBEQ, isa.BranchTarget(pc, w)
	case isa.OpBNE:
		p.op, p.tgt = pBNE, isa.BranchTarget(pc, w)
	case isa.OpBLEZ:
		p.op, p.tgt = pBLEZ, isa.BranchTarget(pc, w)
	case isa.OpBGTZ:
		p.op, p.tgt = pBGTZ, isa.BranchTarget(pc, w)
	case isa.OpADDI, isa.OpADDIU:
		p.op, p.imm = pADDI, uint32(isa.SImm(w))
	case isa.OpSLTI:
		p.op, p.imm = pSLTI, uint32(isa.SImm(w))
	case isa.OpSLTIU:
		p.op, p.imm = pSLTIU, uint32(isa.SImm(w))
	case isa.OpANDI:
		p.op, p.imm = pANDI, isa.Imm(w)
	case isa.OpORI:
		p.op, p.imm = pORI, isa.Imm(w)
	case isa.OpXORI:
		p.op, p.imm = pXORI, isa.Imm(w)
	case isa.OpLUI:
		p.op, p.imm = pLUI, isa.Imm(w)<<16
	case isa.OpCOP0:
		switch isa.Rs(w) {
		case isa.CopMFC0:
			p.op, p.rd = pMFC0, uint8(isa.Rd(w)&7)
		case isa.CopMTC0:
			p.op, p.rd = pMTC0, uint8(isa.Rd(w)&7)
		case isa.CopCO:
			if isa.Funct(w) == isa.FnIRET {
				p.op = pIRET
			}
		}
	case isa.OpLB:
		p.op, p.imm = pLB, uint32(isa.SImm(w))
	case isa.OpLBU:
		p.op, p.imm = pLBU, uint32(isa.SImm(w))
	case isa.OpLH:
		p.op, p.imm = pLH, uint32(isa.SImm(w))
	case isa.OpLHU:
		p.op, p.imm = pLHU, uint32(isa.SImm(w))
	case isa.OpLW:
		p.op, p.imm = pLW, uint32(isa.SImm(w))
	case isa.OpSB:
		p.op, p.imm = pSB, uint32(isa.SImm(w))
	case isa.OpSH:
		p.op, p.imm = pSH, uint32(isa.SImm(w))
	case isa.OpSW:
		p.op, p.imm = pSW, uint32(isa.SImm(w))
	case isa.OpSWIC:
		p.op, p.imm = pSWIC, uint32(isa.SImm(w))
	}
	return p
}

// curNone is a curIdx no line address can produce: addr>>lineShift
// with lineShift >= 2 is below 1<<30.
const curNone = ^uint32(0)

// resetPredecode clears the CPU-side predecoded state (called from
// Load and RestoreState). The slot records in pcode need no reset: a
// slot's records are only read while the I-cache's derived bit for it
// is set, and the cache clears that bit whenever the line changes.
func (c *CPU) resetPredecode() {
	c.curIdx = curNone
	c.hdec = nil
}

// predecodeHandler decodes the decompression handler's RAM once; the
// handler executes from uncached RAM, so this is the only decode it
// ever needs unless a store patches it (noteHandlerStore).
func (c *CPU) predecodeHandler() {
	if c.handlerPC == 0 || c.handlerEnd <= c.handlerPC || c.handlerPC&3 != 0 {
		return
	}
	n := int((c.handlerEnd - c.handlerPC + 3) / 4)
	c.hdec = make([]pinstr, n)
	for i := 0; i < n; i++ {
		a := c.handlerPC + uint32(i*4)
		c.hdec[i] = decodeInstr(a, c.Mem.ReadWord(a))
	}
}

// slotRecord returns the predecoded record for pc, whose line sits in
// I-cache slot. A slot whose derived bit is clear (a fill, a swic, a
// restore) is decoded here from the cache's bytes, once per change.
// The line becomes the same-line fast path's, unless PredecodeCheck
// wants every fetch checked, the line overlaps handler RAM (whose
// fetches must not be served from the I-cache) or an attribution key
// changes inside it (a procedure boundary: each fetch there must call
// the observers out).
func (c *CPU) slotRecord(pc uint32, slot int) *pinstr {
	recs := c.pcode[slot*c.wpl : (slot+1)*c.wpl]
	base := c.IC.LineBase(pc)
	if !c.IC.Derived(slot) {
		data := c.IC.SlotData(slot)
		for i := range recs {
			recs[i] = decodeInstr(base+uint32(4*i), binary.LittleEndian.Uint32(data[4*i:]))
		}
		c.IC.SetDerived(slot)
	}
	end := base + uint32(c.Cfg.ICache.LineBytes)
	if !c.Cfg.PredecodeCheck && (end <= c.handlerPC || base >= c.handlerEnd) &&
		uint64(base) >= c.keyLo && uint64(base)+uint64(c.Cfg.ICache.LineBytes) <= c.keyHi {
		c.curIdx, c.curSlot = pc>>c.lineShift, slot
	} else {
		c.curIdx = curNone
	}
	return &recs[int(pc>>2)&(c.wpl-1)]
}

// fillNative installs the line at base from backed memory — the
// hardware refill — and returns the bus cycles it takes. The records
// are copied from the native decode store (fdec), so a line that
// returns after an eviction is not decoded again; words outside the
// native extent are decoded from the line.
func (c *CPU) fillNative(base uint32) int {
	line := c.fillBuf
	stall := c.Mem.ReadBlock(base, line)
	c.IC.Fill(base, line)
	if c.Cfg.DisablePredecode {
		return stall
	}
	c.fdecEnsure()
	slot := c.IC.Slot(base)
	recs := c.pcode[slot*c.wpl : (slot+1)*c.wpl]
	for i := range recs {
		a := base + uint32(4*i)
		if a < c.fdBase || a >= c.fdEnd {
			recs[i] = decodeInstr(a, binary.LittleEndian.Uint32(line[4*i:]))
			continue
		}
		j := (a - c.fdBase) >> 2
		if c.fdOK[j] == 0 {
			c.fdec[j] = decodeInstr(a, binary.LittleEndian.Uint32(line[4*i:]))
			c.fdOK[j] = 1
		}
		recs[i] = c.fdec[j]
	}
	c.IC.SetDerived(slot)
	return stall
}

// goldenLine builds the decompressed line at base from the golden text
// into the fill buffer (the hardware decompression unit's output).
func (c *CPU) goldenLine(base uint32) []byte {
	line := c.fillBuf
	for i := range line {
		a := base + uint32(i)
		line[i] = 0
		if c.goldenText.Contains(a) {
			line[i] = c.goldenText.Data[a-c.goldenText.Base]
		}
	}
	return line
}

// noteHandlerStore re-predecodes the handler-RAM word a store just
// modified. Cheap range check on the hot store path; sb/sh/sw cannot
// cross a word boundary (sh/sw alignment is enforced before this).
func (c *CPU) noteHandlerStore(addr uint32) {
	if c.hdec == nil || addr < c.handlerPC || addr >= c.handlerEnd {
		return
	}
	a := addr &^ 3
	if i := int((a - c.handlerPC) >> 2); i < len(c.hdec) {
		c.hdec[i] = decodeInstr(a, c.Mem.ReadWord(a))
	}
}

// checkPredecode is the PredecodeCheck oracle: the cached record must
// equal a fresh decode of the word the backing store currently holds.
func (c *CPU) checkPredecode(p *pinstr, pc, w uint32) error {
	if fresh := decodeInstr(pc, w); *p != fresh {
		return fmt.Errorf("cpu: predecode cache stale at %#x: cached %#x, backing %#x", pc, p.raw, w)
	}
	return nil
}
