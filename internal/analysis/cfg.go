package analysis

import "repro/internal/isa"

// Instr is one decoded instruction inside a unit.
type Instr struct {
	PC   uint32
	Word isa.Word
	Kind isa.Kind
}

// Block is a basic block: straight-line instructions ending at a control
// transfer, a terminal instruction, or the next leader.
type Block struct {
	Index  int
	Instrs []Instr
	Succs  []int // intra-unit successor block indices

	// External control transfers leaving the unit (branch/jump targets
	// that resolve outside [Base, End)).
	ExtTargets []uint32

	// FallsOff is set when execution can run past the last instruction of
	// the unit out of this block.
	FallsOff bool
}

// Start returns the block's first PC.
func (b *Block) Start() uint32 { return b.Instrs[0].PC }

// Last returns the block's final instruction.
func (b *Block) Last() *Instr { return &b.Instrs[len(b.Instrs)-1] }

// CFG is the control-flow graph of one unit of code: a procedure or the
// decompression handler. CLR32 has no branch delay slots (the paper's
// re-encoded SimpleScalar ISA), so a control transfer ends its block
// exactly; a delay-slot ISA would fold the slot into the transfer block
// here.
type CFG struct {
	Name   string
	Base   uint32
	Blocks []*Block

	blockAt map[uint32]int // leader PC -> block index
}

// Reachable returns the set of block indices reachable from block 0.
func (g *CFG) Reachable() []bool {
	seen := make([]bool, len(g.Blocks))
	stack := []int{0}
	seen[0] = true
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.Blocks[i].Succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// isJAL reports whether w is a jal (writes $ra, returns to fallthrough).
func isJAL(w isa.Word) bool { return isa.Op(w) == isa.OpJAL }

// isJALR reports whether w is a jalr.
func isJALR(w isa.Word) bool {
	return isa.Op(w) == isa.OpSpecial && isa.Funct(w) == isa.FnJALR
}

// isBreak reports whether w is a break.
func isBreak(w isa.Word) bool {
	return isa.Op(w) == isa.OpSpecial && isa.Funct(w) == isa.FnBREAK
}

// exitsProgram reports whether the syscall at index i of instrs is
// statically known to terminate the program: the nearest preceding write
// to $v0 in the same block loads the constant SysExit. This is the
// pattern every code generator in the tree emits (li $v0, 10; syscall).
func exitsProgram(instrs []Instr, i int) bool {
	for j := i - 1; j >= 0; j-- {
		w := instrs[j].Word
		if DefReg(w) != isa.RegV0 {
			if instrs[j].Kind == isa.KindSyscall || isa.IsControl(w) {
				return false
			}
			continue
		}
		// ori $v0, $zero, imm  or  addiu $v0, $zero, imm
		op := isa.Op(w)
		if (op == isa.OpORI || op == isa.OpADDIU) && isa.Rs(w) == isa.RegZero {
			return isa.Imm(w) == isa.SysExit
		}
		return false
	}
	return false
}

// BuildCFG decodes the words of [base, base+4*len(words)) as one unit and
// constructs its control-flow graph. Control transfers whose target lies
// inside the unit become edges; the rest are recorded as external
// targets for the image-level checks.
func BuildCFG(name string, base uint32, words []isa.Word) *CFG {
	n := len(words)
	end := base + uint32(4*n)
	inUnit := func(t uint32) bool { return t >= base && t < end && t%4 == 0 }

	instrs := make([]Instr, n)
	for i, w := range words {
		instrs[i] = Instr{PC: base + uint32(4*i), Word: w, Kind: isa.Classify(w)}
	}

	// Pass 1: leaders. Index 0, every in-unit control target, and the
	// instruction after every control transfer.
	leader := make([]bool, n)
	if n > 0 {
		leader[0] = true
	}
	target := func(in Instr) (uint32, bool) {
		switch in.Kind {
		case isa.KindBranch:
			return isa.BranchTarget(in.PC, in.Word), true
		case isa.KindJump:
			return isa.JumpTarget(in.PC, in.Word), true
		}
		return 0, false
	}
	for i, in := range instrs {
		if !isa.IsControl(in.Word) {
			continue
		}
		if t, ok := target(in); ok && inUnit(t) {
			leader[(t-base)/4] = true
		}
		if i+1 < n {
			leader[i+1] = true
		}
	}

	// Pass 2: slice blocks.
	g := &CFG{Name: name, Base: base, blockAt: make(map[uint32]int)}
	for i := 0; i < n; {
		j := i + 1
		for j < n && !leader[j] {
			j++
		}
		b := &Block{Index: len(g.Blocks), Instrs: instrs[i:j]}
		g.blockAt[b.Start()] = b.Index
		g.Blocks = append(g.Blocks, b)
		i = j
	}

	// Pass 3: edges.
	for _, b := range g.Blocks {
		last := b.Last()
		next := last.PC + isa.InstrBytes
		fall := func() {
			if next < end {
				b.Succs = append(b.Succs, g.blockAt[next])
			} else {
				b.FallsOff = true
			}
		}
		switch last.Kind {
		case isa.KindBranch:
			fall()
			t := isa.BranchTarget(last.PC, last.Word)
			if inUnit(t) {
				b.Succs = append(b.Succs, g.blockAt[t])
			} else {
				b.ExtTargets = append(b.ExtTargets, t)
			}
		case isa.KindJump:
			t := isa.JumpTarget(last.PC, last.Word)
			if isJAL(last.Word) {
				// Calls return: the callee is an external (or recursive)
				// target, execution resumes at the fallthrough.
				b.ExtTargets = append(b.ExtTargets, t)
				fall()
			} else if inUnit(t) {
				b.Succs = append(b.Succs, g.blockAt[t])
			} else {
				b.ExtTargets = append(b.ExtTargets, t) // tail jump
			}
		case isa.KindJumpReg:
			if isJALR(last.Word) {
				fall() // indirect call; target unknowable
			}
			// jr: return (or indirect jump) — terminal for this unit.
		case isa.KindIret:
			// Terminal: returns to the interrupted user PC.
		case isa.KindSyscall:
			if isBreak(last.Word) || exitsProgram(b.Instrs, len(b.Instrs)-1) {
				break // terminal
			}
			fall()
		default:
			fall()
		}
	}
	return g
}

// ExternalTargets returns every control-transfer target leaving the
// unit, deduplicated and sorted, with one representative source PC each.
func (g *CFG) ExternalTargets() map[uint32]uint32 {
	out := map[uint32]uint32{}
	for _, b := range g.Blocks {
		for _, t := range b.ExtTargets {
			if _, ok := out[t]; !ok {
				out[t] = b.Last().PC
			}
		}
	}
	return out
}

// postorder returns the blocks reachable from block 0 in postorder.
func (g *CFG) postorder() []int {
	seen := make([]bool, len(g.Blocks))
	var order []int
	var walk func(i int)
	walk = func(i int) {
		seen[i] = true
		for _, s := range g.Blocks[i].Succs {
			if !seen[s] {
				walk(s)
			}
		}
		order = append(order, i)
	}
	if len(g.Blocks) > 0 {
		walk(0)
	}
	return order
}

// ReversePostorder returns reachable blocks in reverse postorder — the
// canonical iteration order for forward dataflow problems.
func (g *CFG) ReversePostorder() []int {
	po := g.postorder()
	for i, j := 0, len(po)-1; i < j; i, j = i+1, j-1 {
		po[i], po[j] = po[j], po[i]
	}
	return po
}
