// Package analysis is the static program analyzer for CLR32 images: it
// builds control-flow graphs from decoded instructions, computes register
// def-use and liveness, and checks the invariants the run-time
// decompression architecture depends on (paper §3–§4) — that every
// branch lands on mapped code, that swic never appears outside the
// decompressor RAM, and that a decompression handler is architecturally
// invisible: it preserves every user register it touches.
//
// The same engine backs the cclint CLI, the opt-in core.Compress lint
// pass and the test suites, so a broken handler or a bad re-layout is
// caught in milliseconds without a lockstep simulation run.
package analysis

import (
	"fmt"
	"sort"

	"repro/internal/isa"
)

// Severity ranks a finding.
type Severity int

// Severities. Info findings are advisory (suppressed by default in
// cclint); Warning findings are suspicious but runnable; Error findings
// describe code that can misbehave under decompression.
const (
	Info Severity = iota
	Warning
	Error
)

func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return fmt.Sprintf("Severity(%d)", int(s))
}

// Rule identifiers. Each invariant has a stable ID shared by the tests,
// cclint output and docs/analysis.md.
const (
	RuleIllegalInstr    = "illegal-instr"     // reachable word does not decode
	RuleFallthroughEnd  = "fallthrough-end"   // execution can run off the end of a procedure
	RuleDeadCode        = "dead-code"         // unreachable procedure or basic block
	RuleTargetBounds    = "target-bounds"     // branch/jump target outside every code region
	RuleTargetUnmapped  = "target-unmapped"   // target's decompression line not fully mapped
	RuleBranchCrossProc = "branch-cross-proc" // conditional branch leaves its procedure
	RuleCallMidProc     = "call-mid-proc"     // jal target is not a procedure entry
	RuleSwicOutside     = "swic-outside"      // swic outside the decompressor RAM
	RuleCompGeometry    = "comp-geometry"     // CompressionInfo inconsistent with segments
	RuleUnclaimedCode   = "unclaimed-code"    // non-nop code bytes outside every procedure

	RuleHandlerClobber    = "handler-clobber"     // user-visible register state not preserved
	RuleHandlerNoIret     = "handler-no-iret"     // a handler path ends without iret
	RuleHandlerNoSwic     = "handler-no-swic"     // handler cannot fill an I-cache line
	RuleHandlerEscape     = "handler-escape"      // control leaves the handler RAM (or syscall)
	RuleHandlerStore      = "handler-store"       // store outside the $sp red zone
	RuleHandlerShadowRead = "handler-shadow-read" // shadow-RF handler reads stale register
	RuleHandlerSysreg     = "handler-sysreg"      // handler writes exception state via mtc0
	RuleHandlerCoverage   = "handler-coverage"    // handler bytes outside the save/restore proof
)

// Finding is one diagnostic: a rule violation at a program counter.
type Finding struct {
	Rule     string
	Severity Severity
	PC       uint32 // address of the offending instruction (0 if image-level)
	Unit     string // procedure or region the PC belongs to
	Message  string
}

func (f Finding) String() string {
	if f.PC == 0 && f.Unit == "" {
		return fmt.Sprintf("%s [%s] %s", f.Severity, f.Rule, f.Message)
	}
	return fmt.Sprintf("%s [%s] %#08x (%s): %s", f.Severity, f.Rule, f.PC, f.Unit, f.Message)
}

// Report collects the findings of one analysis run.
type Report struct {
	Findings []Finding
}

func (r *Report) add(rule string, sev Severity, pc uint32, unit, format string, args ...interface{}) {
	r.Findings = append(r.Findings, Finding{
		Rule: rule, Severity: sev, PC: pc, Unit: unit,
		Message: fmt.Sprintf(format, args...),
	})
}

// Sort orders findings by severity (most severe first), then PC.
func (r *Report) Sort() {
	sort.SliceStable(r.Findings, func(i, j int) bool {
		a, b := &r.Findings[i], &r.Findings[j]
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		return a.PC < b.PC
	})
}

// AtLeast returns the findings with severity >= min.
func (r *Report) AtLeast(min Severity) []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Severity >= min {
			out = append(out, f)
		}
	}
	return out
}

// Count returns how many findings have severity >= min.
func (r *Report) Count(min Severity) int { return len(r.AtLeast(min)) }

// regOrHILO names a register index for messages, where HI/LO use the
// pseudo-indices below.
const (
	regHI = 32
	regLO = 33
)

func regName(r int) string {
	switch r {
	case regHI:
		return "$hi"
	case regLO:
		return "$lo"
	}
	return isa.RegName(r)
}
