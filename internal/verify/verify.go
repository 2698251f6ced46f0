// Package verify provides differential verification of program images:
// two images (typically a native program and its compressed rewrite) run
// in lockstep, and the first architectural divergence — a differing
// committed instruction, register state, exit code or output — is
// reported with full context. Decompression is meant to be invisible to
// the program, so any divergence is a bug in a compressor, a handler or
// the re-layout. Each lockstep step is one cpu.StepUser call per
// machine: its commit tracer makes the loop stop after every commit and
// keeps handler replay off, so the tracer sees every handler commit.
package verify

import (
	"errors"
	"fmt"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/program"
)

// Divergence describes the first difference between two runs.
type Divergence struct {
	Step   uint64 // committed user-instruction index
	What   string // human-readable description
	PCA    uint32
	PCB    uint32
	InstrA uint32
	InstrB uint32
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("verify: step %d: %s (A: %08x %s | B: %08x %s)",
		d.Step, d.What,
		d.PCA, isa.Disassemble(d.PCA, d.InstrA),
		d.PCB, isa.Disassemble(d.PCB, d.InstrB))
}

// procRelative maps a PC to (procedure name, offset) so that images with
// different layouts can be compared position-independently.
func procRelative(im *program.Image, pc uint32) (string, uint32) {
	if p := im.ProcAt(pc); p != nil {
		return p.Name, pc - p.Addr
	}
	return "", pc
}

// Lockstep is the two-image case of LockstepMulti, with b compared
// against a under its rules: every committed user instruction and the
// register state (HI/LO included) at each step, the exit code and the
// output at the halt. It returns nil when the runs are equivalent, or
// the first *Divergence; a machine fault is a *MachineError. With
// maxSteps > 0 it compares a prefix: reaching maxSteps before the halt
// returns nil.
func Lockstep(a, b *program.Image, cfg cpu.Config, maxSteps uint64) error {
	_, err := LockstepMulti([]*program.Image{a, b}, MultiConfig{CPU: cfg, MaxSteps: maxSteps})
	var d *MultiDivergence
	switch {
	case errors.Is(err, errStepBudget):
		return nil
	case errors.As(err, &d):
		return &Divergence{Step: d.Step, What: d.What,
			PCA: d.PCA, PCB: d.PCB, InstrA: d.InstrA, InstrB: d.InstrB}
	}
	return err
}

// Equivalent is a convenience wrapper: it reports a readable multi-line
// verdict instead of an error.
func Equivalent(a, b *program.Image, cfg cpu.Config, maxSteps uint64) (bool, string) {
	if err := Lockstep(a, b, cfg, maxSteps); err != nil {
		return false, "NOT equivalent:\n  " + err.Error()
	}
	return true, "equivalent"
}
