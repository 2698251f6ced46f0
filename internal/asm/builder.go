// Package asm provides a two-layer assembler for the CLR32 ISA: a
// programmatic Builder used by the benchmark generator and the linker, and
// a text assembler (Assemble) used for the decompression handlers, the
// examples and the command-line tools.
package asm

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/isa"
	"repro/internal/program"
)

type section struct {
	name    string
	base    uint32
	buf     []byte
	virtual bool
	relocs  []program.Reloc
	fixups  []branchFixup
}

func (s *section) pc() uint32 { return s.base + uint32(len(s.buf)) }

type branchFixup struct {
	off  uint32 // byte offset of the branch word within the section
	sym  string
	line int // source line for error messages (0 for Builder use)
}

type procMark struct {
	name  string
	sec   string
	start uint32 // byte offset within section
	end   uint32 // filled by closeProc
	open  bool
}

// Builder assembles a program image instruction by instruction. All
// methods record errors internally; Finish reports the first one. This
// keeps emission call sites free of error plumbing, matching how the
// benchmark generator emits hundreds of thousands of instructions.
type Builder struct {
	sections []*section
	secByNm  map[string]*section
	cur      *section
	symbols  map[string]uint32
	symOrder []string
	procs    []procMark
	entrySym string
	errs     []error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{
		secByNm: make(map[string]*section),
		symbols: make(map[string]uint32),
	}
}

func (b *Builder) errorf(format string, args ...interface{}) {
	b.errs = append(b.errs, fmt.Errorf(format, args...))
}

// Section selects (creating if needed) the named output section with the
// given base address. Virtual sections are address ranges that exist only
// in the I-cache and are not loaded into memory.
func (b *Builder) Section(name string, base uint32, virtual bool) {
	if s, ok := b.secByNm[name]; ok {
		if s.base != base {
			b.errorf("asm: section %s re-opened with different base %#x (was %#x)", name, base, s.base)
		}
		b.cur = s
		return
	}
	s := &section{name: name, base: base, virtual: virtual}
	b.secByNm[name] = s
	b.sections = append(b.sections, s)
	b.cur = s
}

func (b *Builder) need() *section {
	if b.cur == nil {
		b.Section(program.SegText, program.NativeBase, false)
	}
	return b.cur
}

// Label defines sym at the current position. Redefinition at the same
// address is tolerated (".proc main" followed by "main:" is idiomatic);
// redefinition elsewhere is an error.
func (b *Builder) Label(sym string) {
	pc := b.need().pc()
	if old, dup := b.symbols[sym]; dup {
		if old != pc {
			b.errorf("asm: duplicate symbol %q", sym)
		}
		return
	}
	b.symbols[sym] = pc
	b.symOrder = append(b.symOrder, sym)
}

// Proc starts a new procedure named sym (also defining it as a label),
// closing any procedure currently open in this section.
func (b *Builder) Proc(sym string) {
	s := b.need()
	b.closeProc(s)
	b.Label(sym)
	b.procs = append(b.procs, procMark{name: sym, sec: s.name, start: uint32(len(s.buf)), open: true})
}

func (b *Builder) closeProc(s *section) {
	for i := len(b.procs) - 1; i >= 0; i-- {
		p := &b.procs[i]
		if p.open && p.sec == s.name {
			p.end = uint32(len(s.buf))
			p.open = false
			return
		}
	}
}

// EndProc closes the procedure currently open in the active section.
func (b *Builder) EndProc() { b.closeProc(b.need()) }

// SetEntry records the symbol execution starts at.
func (b *Builder) SetEntry(sym string) { b.entrySym = sym }

// Raw emits a pre-encoded instruction or data word.
func (b *Builder) Raw(w uint32) {
	s := b.need()
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], w)
	s.buf = append(s.buf, tmp[:]...)
}

func (b *Builder) spec(name string, want isa.Syntax) *isa.Spec {
	sp := isa.SpecByName[name]
	if sp == nil {
		b.errorf("asm: unknown mnemonic %q", name)
		return nil
	}
	if sp.Syntax != want {
		b.errorf("asm: mnemonic %q used with wrong operand shape", name)
		return nil
	}
	return sp
}

func checkReg(b *Builder, r int) {
	if r < 0 || r >= isa.NumRegs {
		b.errorf("asm: register %d out of range", r)
	}
}

// R3 emits a three-register ALU op: name rd, rs, rt.
func (b *Builder) R3(name string, rd, rs, rt int) {
	checkReg(b, rd)
	checkReg(b, rs)
	checkReg(b, rt)
	if sp := b.spec(name, isa.SynR3); sp != nil {
		b.Raw(isa.EncodeR(sp.Funct, rs, rt, rd, 0))
	}
}

// Shift emits name rd, rt, shamt.
func (b *Builder) Shift(name string, rd, rt int, shamt uint32) {
	checkReg(b, rd)
	checkReg(b, rt)
	if shamt > 31 {
		b.errorf("asm: shift amount %d out of range", shamt)
	}
	if sp := b.spec(name, isa.SynShift); sp != nil {
		b.Raw(isa.EncodeR(sp.Funct, 0, rt, rd, shamt))
	}
}

// ShiftV emits name rd, rt, rs (variable shift).
func (b *Builder) ShiftV(name string, rd, rt, rs int) {
	checkReg(b, rd)
	checkReg(b, rt)
	checkReg(b, rs)
	if sp := b.spec(name, isa.SynShiftV); sp != nil {
		b.Raw(isa.EncodeR(sp.Funct, rs, rt, rd, 0))
	}
}

// MulDiv emits mult/div-family: name rs, rt.
func (b *Builder) MulDiv(name string, rs, rt int) {
	checkReg(b, rs)
	checkReg(b, rt)
	if sp := b.spec(name, isa.SynMulDiv); sp != nil {
		b.Raw(isa.EncodeR(sp.Funct, rs, rt, 0, 0))
	}
}

// MoveFrom emits mfhi/mflo: name rd.
func (b *Builder) MoveFrom(name string, rd int) {
	checkReg(b, rd)
	if sp := b.spec(name, isa.SynMoveFrom); sp != nil {
		b.Raw(isa.EncodeR(sp.Funct, 0, 0, rd, 0))
	}
}

// Imm emits an immediate ALU op: name rt, rs, imm.
func (b *Builder) Imm(name string, rt, rs int, imm int32) {
	checkReg(b, rt)
	checkReg(b, rs)
	sp := b.spec(name, isa.SynImm)
	if sp == nil {
		return
	}
	if sp.Signed {
		if imm < -(1<<15) || imm >= 1<<15 {
			b.errorf("asm: %s immediate %d out of signed 16-bit range", name, imm)
		}
	} else if imm < 0 || imm >= 1<<16 {
		b.errorf("asm: %s immediate %d out of unsigned 16-bit range", name, imm)
	}
	b.Raw(isa.EncodeI(sp.Op, rs, rt, uint32(imm)&0xFFFF))
}

// Lui emits lui rt, imm.
func (b *Builder) Lui(rt int, imm uint32) {
	checkReg(b, rt)
	if imm >= 1<<16 {
		b.errorf("asm: lui immediate %#x out of range", imm)
	}
	b.Raw(isa.EncodeI(isa.OpLUI, 0, rt, imm))
}

// Mem emits a load/store: name rt, off(rs). Also accepts swic.
func (b *Builder) Mem(name string, rt int, off int32, rs int) {
	checkReg(b, rt)
	checkReg(b, rs)
	sp := b.spec(name, isa.SynMem)
	if sp == nil {
		return
	}
	if off < -(1<<15) || off >= 1<<15 {
		b.errorf("asm: %s offset %d out of range", name, off)
	}
	b.Raw(isa.EncodeI(sp.Op, rs, rt, uint32(off)&0xFFFF))
}

// Branch2 emits name rs, rt, sym (beq/bne).
func (b *Builder) Branch2(name string, rs, rt int, sym string) {
	checkReg(b, rs)
	checkReg(b, rt)
	sp := b.spec(name, isa.SynBranch2)
	if sp == nil {
		return
	}
	b.branchTo(isa.EncodeI(sp.Op, rs, rt, 0), sym)
}

// Branch1 emits name rs, sym (blez/bgtz/bltz/bgez).
func (b *Builder) Branch1(name string, rs int, sym string) {
	checkReg(b, rs)
	sp := b.spec(name, isa.SynBranch1)
	if sp == nil {
		return
	}
	b.branchTo(isa.EncodeI(sp.Op, rs, sp.Rt, 0), sym)
}

func (b *Builder) branchTo(w uint32, sym string) {
	s := b.need()
	s.fixups = append(s.fixups, branchFixup{off: uint32(len(s.buf)), sym: sym})
	b.Raw(w)
}

// Jump emits j/jal sym with a J26 relocation.
func (b *Builder) Jump(name string, sym string) {
	sp := b.spec(name, isa.SynJump)
	if sp == nil {
		return
	}
	s := b.need()
	s.relocs = append(s.relocs, program.Reloc{
		Kind: program.RelJ26, Seg: s.name, Off: uint32(len(s.buf)), Sym: sym})
	b.Raw(isa.EncodeJ(sp.Op, 0))
}

// JR emits jr rs.
func (b *Builder) JR(rs int) {
	checkReg(b, rs)
	b.Raw(isa.EncodeR(isa.FnJR, rs, 0, 0, 0))
}

// JALR emits jalr rd, rs.
func (b *Builder) JALR(rd, rs int) {
	checkReg(b, rd)
	checkReg(b, rs)
	b.Raw(isa.EncodeR(isa.FnJALR, rs, 0, rd, 0))
}

// Syscall emits syscall.
func (b *Builder) Syscall() { b.Raw(isa.EncodeR(isa.FnSYSCALL, 0, 0, 0, 0)) }

// Break emits break.
func (b *Builder) Break() { b.Raw(isa.EncodeR(isa.FnBREAK, 0, 0, 0, 0)) }

// Nop emits the canonical no-op.
func (b *Builder) Nop() { b.Raw(isa.NOP) }

// Iret emits a return from exception.
func (b *Builder) Iret() { b.Raw(isa.EncodeI(isa.OpCOP0, isa.CopCO, 0, isa.FnIRET)) }

// Mfc0 emits mfc0 rt, $cN.
func (b *Builder) Mfc0(rt, c int) {
	checkReg(b, rt)
	if c < 0 || c >= isa.NumC0Regs {
		b.errorf("asm: system register %d out of range", c)
	}
	b.Raw(isa.EncodeI(isa.OpCOP0, isa.CopMFC0, rt, uint32(c)<<11))
}

// Mtc0 emits mtc0 rt, $cN.
func (b *Builder) Mtc0(rt, c int) {
	checkReg(b, rt)
	if c < 0 || c >= isa.NumC0Regs {
		b.errorf("asm: system register %d out of range", c)
	}
	b.Raw(isa.EncodeI(isa.OpCOP0, isa.CopMTC0, rt, uint32(c)<<11))
}

// Swic emits swic rt, off(rs): store word into the I-cache.
func (b *Builder) Swic(rt int, off int32, rs int) { b.Mem("swic", rt, off, rs) }

// LuiHi emits "lui rt, %hi(sym+add)" with a HI16 relocation.
func (b *Builder) LuiHi(rt int, sym string, add int32) {
	checkReg(b, rt)
	s := b.need()
	s.relocs = append(s.relocs, program.Reloc{
		Kind: program.RelHi16, Seg: s.name, Off: uint32(len(s.buf)), Sym: sym, Add: add})
	b.Raw(isa.EncodeI(isa.OpLUI, 0, rt, 0))
}

// ImmLo emits "op rt, rs, %lo(sym+add)" with a LO16 relocation; op must
// be an immediate ALU mnemonic (typically ori or addiu).
func (b *Builder) ImmLo(name string, rt, rs int, sym string, add int32) {
	checkReg(b, rt)
	checkReg(b, rs)
	sp := b.spec(name, isa.SynImm)
	if sp == nil {
		return
	}
	s := b.need()
	s.relocs = append(s.relocs, program.Reloc{
		Kind: program.RelLo16, Seg: s.name, Off: uint32(len(s.buf)), Sym: sym, Add: add})
	b.Raw(isa.EncodeI(sp.Op, rs, rt, 0))
}

// La materialises the address of sym+add into rt as lui+ori with HI16/LO16
// relocations, so it survives procedure re-layout.
func (b *Builder) La(rt int, sym string, add int32) {
	checkReg(b, rt)
	s := b.need()
	s.relocs = append(s.relocs,
		program.Reloc{Kind: program.RelHi16, Seg: s.name, Off: uint32(len(s.buf)), Sym: sym, Add: add},
		program.Reloc{Kind: program.RelLo16, Seg: s.name, Off: uint32(len(s.buf)) + 4, Sym: sym, Add: add})
	b.Raw(isa.EncodeI(isa.OpLUI, 0, rt, 0))
	b.Raw(isa.EncodeI(isa.OpORI, rt, rt, 0))
}

// Li loads the 32-bit constant v into rt using the shortest sequence.
func (b *Builder) Li(rt int, v uint32) {
	checkReg(b, rt)
	switch {
	case v < 1<<16:
		b.Raw(isa.EncodeI(isa.OpORI, isa.RegZero, rt, v))
	case int32(v) < 0 && int32(v) >= -(1<<15):
		b.Raw(isa.EncodeI(isa.OpADDIU, isa.RegZero, rt, v&0xFFFF))
	case v&0xFFFF == 0:
		b.Lui(rt, v>>16)
	default:
		b.Lui(rt, v>>16)
		b.Raw(isa.EncodeI(isa.OpORI, rt, rt, v&0xFFFF))
	}
}

// Move emits a register copy (addu rd, rs, $zero).
func (b *Builder) Move(rd, rs int) { b.R3("addu", rd, rs, isa.RegZero) }

// Word emits a 32-bit data word.
func (b *Builder) Word(v uint32) { b.Raw(v) }

// WordSym emits a 32-bit data word holding the address of sym+add.
func (b *Builder) WordSym(sym string, add int32) {
	s := b.need()
	s.relocs = append(s.relocs, program.Reloc{
		Kind: program.RelWord32, Seg: s.name, Off: uint32(len(s.buf)), Sym: sym, Add: add})
	b.Raw(0)
}

// Half emits a 16-bit data halfword.
func (b *Builder) Half(v uint16) {
	s := b.need()
	s.buf = append(s.buf, byte(v), byte(v>>8))
}

// Byte emits one data byte.
func (b *Builder) Byte(v byte) {
	s := b.need()
	s.buf = append(s.buf, v)
}

// Bytes emits raw data bytes.
func (b *Builder) Bytes(p []byte) {
	s := b.need()
	s.buf = append(s.buf, p...)
}

// Asciiz emits a NUL-terminated string.
func (b *Builder) Asciiz(t string) {
	b.Bytes([]byte(t))
	b.Byte(0)
}

// Space emits n zero bytes.
func (b *Builder) Space(n int) {
	if n < 0 {
		b.errorf("asm: negative .space %d", n)
		return
	}
	s := b.need()
	s.buf = append(s.buf, make([]byte, n)...)
}

// Align pads the current section to an n-byte boundary (n a power of two).
func (b *Builder) Align(n int) {
	if n <= 0 || n&(n-1) != 0 {
		b.errorf("asm: .align %d not a power of two", n)
		return
	}
	s := b.need()
	for len(s.buf)%n != 0 {
		s.buf = append(s.buf, 0)
	}
}

// Finish resolves branches and relocations and returns the linked image.
func (b *Builder) Finish() (*program.Image, error) {
	for _, s := range b.sections {
		b.closeProc(s)
	}
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	im := &program.Image{Symbols: b.symbols}
	for _, s := range b.sections {
		im.Segments = append(im.Segments, &program.Segment{
			Name: s.name, Base: s.base, Data: s.buf, Virtual: s.virtual})
		im.Relocs = append(im.Relocs, s.relocs...)
	}
	// Resolve local branch fixups.
	for _, s := range b.sections {
		seg := im.Segment(s.name)
		for _, f := range s.fixups {
			target, ok := b.symbols[f.sym]
			if !ok {
				return nil, fmt.Errorf("asm: line %d: undefined branch target %q", f.line, f.sym)
			}
			site := s.base + f.off
			field, err := isa.EncodeBranchOff(site, target)
			if err != nil {
				return nil, fmt.Errorf("asm: line %d: %v", f.line, err)
			}
			seg.SetWord(site, seg.Word(site)|field)
		}
	}
	if err := program.ApplyRelocs(im); err != nil {
		return nil, err
	}
	// Build the procedure table.
	for _, p := range b.procs {
		sec := b.secByNm[p.sec]
		im.Procs = append(im.Procs, program.Procedure{
			Name: p.name, Addr: sec.base + p.start, Size: p.end - p.start})
	}
	sort.Slice(im.Procs, func(i, j int) bool { return im.Procs[i].Addr < im.Procs[j].Addr })
	if b.entrySym != "" {
		addr, ok := b.symbols[b.entrySym]
		if !ok {
			return nil, fmt.Errorf("asm: undefined entry symbol %q", b.entrySym)
		}
		im.Entry = addr
	} else if len(im.Procs) > 0 {
		im.Entry = im.Procs[0].Addr
	} else if t := im.Segment(program.SegText); t != nil {
		im.Entry = t.Base
	} else if len(im.Segments) > 0 {
		im.Entry = im.Segments[0].Base
	}
	if err := im.Validate(); err != nil {
		return nil, err
	}
	return im, nil
}
