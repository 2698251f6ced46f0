package verify

// Multi-way lockstep: run N images of the same program (native plus any
// number of compressed variants) simultaneously, comparing every
// committed user instruction of each variant against the reference
// (index 0). Lockstep is its two-image case; the differential
// co-simulation harness (internal/diffsim) uses it directly. It:
//
//   - captures each machine's syscall output, so output traces and
//     exit codes are compared at the halt;
//   - compares the HI/LO registers (handlers never touch them);
//   - exposes an OnCommit hook observing *every* commit, including
//     handler instructions, for external oracles (swic content checks,
//     cycle accounting);
//   - guards against runaway handlers with a per-user-step handler
//     instruction budget.

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/program"
)

// MultiConfig configures LockstepMulti.
type MultiConfig struct {
	CPU      cpu.Config
	MaxSteps uint64 // committed user instructions; 0 = unlimited
	// OnCommit, when set, observes every committed instruction of every
	// machine (img is the image index, handler marks handler commits).
	// It runs after the instruction's architectural effects.
	OnCommit func(img int, c *cpu.CPU, pc, instr uint32, handler bool)
	// Attach, when set, runs once per machine after the lockstep trace
	// hook is installed and before the image loads — the point where
	// observers (telemetry window samplers) can compose onto c via
	// cpu.AttachTrace without being clobbered.
	Attach func(img int, c *cpu.CPU)
}

// MultiResult is the final state of one machine after LockstepMulti.
type MultiResult struct {
	Image    *program.Image
	Output   []byte // everything the program wrote via syscalls
	ExitCode int32
	Halted   bool
	Steps    uint64 // committed user instructions
	CPU      *cpu.CPU
}

// MultiDivergence reports the first difference between the reference
// machine (image 0) and machine Img.
type MultiDivergence struct {
	Img            int
	Step           uint64
	What           string
	PCA            uint32 // reference
	PCB            uint32 // diverging image
	InstrA, InstrB uint32
}

func (d *MultiDivergence) Error() string {
	return fmt.Sprintf("verify: image %d diverges at step %d: %s (ref: %08x %s | img%d: %08x %s)",
		d.Img, d.Step, d.What,
		d.PCA, isa.Disassemble(d.PCA, d.InstrA),
		d.Img, d.PCB, isa.Disassemble(d.PCB, d.InstrB))
}

// MachineError reports that one machine faulted (illegal instruction,
// handler runaway, simulator error) rather than diverging architecturally.
// Img 0 is the reference: a reference fault is an infrastructure problem,
// while a fault in a compressed image is itself a correctness finding (a
// broken handler typically faults before it diverges).
type MachineError struct {
	Img  int
	Step uint64
	Err  error
}

func (e *MachineError) Error() string {
	return fmt.Sprintf("verify: image %d: step %d: %v", e.Img, e.Step, e.Err)
}

func (e *MachineError) Unwrap() error { return e.Err }

// mmachine is a machine with output capture and full-commit tracing.
type mmachine struct {
	c    *cpu.CPU
	im   *program.Image
	out  bytes.Buffer
	last struct {
		pc, instr uint32
	}
	pending      bool
	steps        uint64
	handlerBurst uint64
}

func newMMachine(idx int, im *program.Image, cfg *MultiConfig) (*mmachine, error) {
	c, err := cpu.New(cfg.CPU)
	if err != nil {
		return nil, err
	}
	m := &mmachine{c: c, im: im}
	c.Out = &m.out
	c.Trace = func(pc, instr uint32, handler bool) {
		if handler {
			m.handlerBurst++
		} else {
			m.last.pc, m.last.instr = pc, instr
			m.pending = true
		}
		if cfg.OnCommit != nil {
			cfg.OnCommit(idx, c, pc, instr, handler)
		}
	}
	if cfg.Attach != nil {
		cfg.Attach(idx, c)
	}
	if err := c.Load(im); err != nil {
		return nil, err
	}
	return m, nil
}

// maxBurst caps handler instructions run for a single user step. A
// handler exceeding it is a failure, not a hang.
const maxBurst = 1 << 20

// stepUser advances until one user instruction commits, running handler
// activity silently but bounded.
func (m *mmachine) stepUser() (halted bool, err error) {
	if h, _ := m.c.Halted(); h {
		return true, nil
	}
	m.pending, m.handlerBurst = false, 0
	// The cap admits maxBurst handler instructions and one user commit.
	if err := m.c.StepUser(maxBurst + 1); err != nil {
		return false, err
	}
	if !m.pending {
		if h, _ := m.c.Halted(); h {
			return true, nil
		}
		return false, fmt.Errorf("handler ran %d instructions without returning control (pc %#x)",
			m.handlerBurst, m.c.PC())
	}
	m.steps++
	return false, nil
}

// LockstepMulti runs every image in lockstep against images[0] and
// returns the final machine states. A non-nil error is either a
// *MultiDivergence (an architectural mismatch — a finding) or an
// infrastructure error (a machine faulted or the step budget ran out
// before the reference halted).
func LockstepMulti(images []*program.Image, cfg MultiConfig) ([]*MultiResult, error) {
	if len(images) < 2 {
		return nil, fmt.Errorf("verify: LockstepMulti needs at least 2 images, got %d", len(images))
	}
	ms := make([]*mmachine, len(images))
	for i, im := range images {
		m, err := newMMachine(i, im, &cfg)
		if err != nil {
			return nil, fmt.Errorf("verify: image %d: %v", i, err)
		}
		ms[i] = m
	}
	results := func() []*MultiResult {
		out := make([]*MultiResult, len(ms))
		for i, m := range ms {
			halted, code := m.c.Halted()
			out[i] = &MultiResult{Image: m.im, Output: m.out.Bytes(),
				ExitCode: code, Halted: halted, Steps: m.steps, CPU: m.c}
		}
		return out
	}

	for step := uint64(0); cfg.MaxSteps == 0 || step < cfg.MaxSteps; step++ {
		haltedRef, err := ms[0].stepUser()
		if err != nil {
			return results(), &MachineError{Img: 0, Step: step, Err: err}
		}
		for i := 1; i < len(ms); i++ {
			halted, err := ms[i].stepUser()
			if err != nil {
				return results(), &MachineError{Img: i, Step: step, Err: err}
			}
			if halted != haltedRef {
				return results(), &MultiDivergence{Img: i, Step: step,
					What: "one machine halted before the other",
					PCA:  ms[0].last.pc, PCB: ms[i].last.pc,
					InstrA: ms[0].last.instr, InstrB: ms[i].last.instr}
			}
		}
		if haltedRef {
			// All machines halted on the same step: compare final state.
			for i := 1; i < len(ms); i++ {
				if d := compareFinal(step, ms[0], ms[i], i); d != nil {
					return results(), d
				}
			}
			return results(), nil
		}
		for i := 1; i < len(ms); i++ {
			if d := compareStep(step, ms[0], ms[i], i); d != nil {
				return results(), d
			}
		}
	}
	return results(), fmt.Errorf("verify: step %w %d exhausted before halt", errStepBudget, cfg.MaxSteps)
}

// errStepBudget marks a run that reached MultiConfig.MaxSteps before
// the reference halted.
var errStepBudget = errors.New("budget")

// compareStep checks instruction identity and register state of machine
// m against the reference: the same encoding, or (for instructions that
// embed code addresses) the same procedure-relative position, and every
// general-purpose register except those that legitimately hold code
// addresses ($ra, and $t9, which carries jr/jalr targets) and the
// OS-reserved $k0/$k1 the single-register-file handlers use as scratch,
// which user code may never observe (internal/analysis exempts them
// too). Register values that are code addresses in their own images
// compare procedure-relatively. HI/LO compare exactly.
func compareStep(step uint64, ref, m *mmachine, idx int) *MultiDivergence {
	div := func(what string) *MultiDivergence {
		return &MultiDivergence{Img: idx, Step: step, What: what,
			PCA: ref.last.pc, PCB: m.last.pc,
			InstrA: ref.last.instr, InstrB: m.last.instr}
	}
	pa, oa := procRelative(ref.im, ref.last.pc)
	pb, ob := procRelative(m.im, m.last.pc)
	if ref.last.instr != m.last.instr {
		if pa != pb || oa != ob {
			return div("different instruction position")
		}
		if isa.Op(ref.last.instr) != isa.Op(m.last.instr) {
			return div("different opcode at same position")
		}
	} else if pa != pb || oa != ob {
		return div("same instruction at different position")
	}
	for r := 0; r < isa.NumRegs; r++ {
		if r == isa.RegRA || r == isa.RegT9 || r == isa.RegK0 || r == isa.RegK1 {
			continue
		}
		va, vb := ref.c.Reg(r), m.c.Reg(r)
		if va == vb {
			continue
		}
		na, oa := procRelative(ref.im, va)
		nb, ob := procRelative(m.im, vb)
		if na != "" && na == nb && oa == ob {
			continue
		}
		return div(fmt.Sprintf("register %s differs: %#x vs %#x", isa.RegName(r), va, vb))
	}
	hiA, loA := ref.c.HiLo()
	hiB, loB := m.c.HiLo()
	if hiA != hiB || loA != loB {
		return div(fmt.Sprintf("HI/LO differ: %#x/%#x vs %#x/%#x", hiA, loA, hiB, loB))
	}
	return nil
}

// compareFinal checks exit code and captured output once both machines
// have halted.
func compareFinal(step uint64, ref, m *mmachine, idx int) *MultiDivergence {
	div := func(what string) *MultiDivergence {
		return &MultiDivergence{Img: idx, Step: step, What: what,
			PCA: ref.last.pc, PCB: m.last.pc,
			InstrA: ref.last.instr, InstrB: m.last.instr}
	}
	_, codeA := ref.c.Halted()
	_, codeB := m.c.Halted()
	if codeA != codeB {
		return div(fmt.Sprintf("exit codes differ: %d vs %d", codeA, codeB))
	}
	if !bytes.Equal(ref.out.Bytes(), m.out.Bytes()) {
		return div(fmt.Sprintf("outputs differ: %q vs %q", ref.out.String(), m.out.String()))
	}
	return nil
}
