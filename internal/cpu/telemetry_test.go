package cpu

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

// TestAttachTraceMultiplexes is the hook-composition regression: every
// tracer attached with AttachTrace must see every commit, in order,
// regardless of attach order.
func TestAttachTraceMultiplexes(t *testing.T) {
	im, err := asm.Assemble(excProgram)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c.Cfg.MaxInstr = 1_000_000
	var a, b uint64
	var firstPCs, secondPCs []uint32
	c.AttachTrace(func(pc, instr uint32, handler bool) {
		a++
		if len(firstPCs) < 8 {
			firstPCs = append(firstPCs, pc)
		}
	})
	c.AttachTrace(func(pc, instr uint32, handler bool) {
		b++
		if len(secondPCs) < 8 {
			secondPCs = append(secondPCs, pc)
		}
	})
	if err := c.Load(im); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	total := c.Stats.Instrs + c.Stats.HandlerInstrs
	if a != total || b != total {
		t.Fatalf("tracers saw %d/%d commits, want %d each", a, b, total)
	}
	for i := range firstPCs {
		if firstPCs[i] != secondPCs[i] {
			t.Fatalf("tracers diverged at commit %d: %#x vs %#x", i, firstPCs[i], secondPCs[i])
		}
	}
}

// TestTracersSeeNextPC pins the commit-hook ordering the attribution
// ledger keys on: every attached tracer runs after the PC has moved on,
// so c.PC() is the next fetch address — the target after a taken
// branch, the EPC after iret, and, before a decompression exception
// redirects the fetch into the handler, the faulting address the
// handler's EPC then holds.
func TestTracersSeeNextPC(t *testing.T) {
	im := buildCopyCompressed(t, excProgram, false)
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c.Cfg.MaxInstr = 1_000_000
	type commit struct {
		pc, instr, epc uint32
		handler        bool
		seen           [2]uint32 // c.PC() in the first and second tracer
	}
	var log []commit
	c.AttachTrace(func(pc, instr uint32, handler bool) {
		log = append(log, commit{pc: pc, instr: instr, epc: c.C0(4), handler: handler})
		log[len(log)-1].seen[0] = c.PC()
	})
	c.AttachTrace(func(pc, instr uint32, handler bool) { log[len(log)-1].seen[1] = c.PC() })
	if err := c.Load(im); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	var branches, irets, redirects int
	for i := 0; i+1 < len(log); i++ {
		cur, next := log[i], log[i+1]
		if cur.seen[0] != cur.seen[1] {
			t.Fatalf("commit %d at %#x: tracers saw PC %#x and %#x", i, cur.pc, cur.seen[0], cur.seen[1])
		}
		want := next.pc
		switch {
		case !cur.handler && next.handler:
			want = next.epc // the fetch at the faulting address raised the exception
			redirects++
		case isa.Classify(cur.instr) == isa.KindIret:
			if cur.seen[0] != cur.epc {
				t.Fatalf("iret at %#x: tracer saw PC %#x, EPC is %#x", cur.pc, cur.seen[0], cur.epc)
			}
			irets++
		case isa.Classify(cur.instr) == isa.KindBranch && next.pc != cur.pc+4:
			branches++
		}
		if cur.seen[0] != want {
			t.Fatalf("commit %d at %#x: tracer saw PC %#x, next commit's fetch address is %#x", i, cur.pc, cur.seen[0], want)
		}
	}
	if branches == 0 || irets == 0 || redirects == 0 {
		t.Fatalf("vacuous: %d taken branches, %d irets, %d exception redirects", branches, irets, redirects)
	}
}

// TestExcCycleAccounting checks the exception latency statistics on a
// nested-free sequence of decompression exceptions (the only kind the
// machine permits — nesting is a simulation error).
func TestExcCycleAccounting(t *testing.T) {
	im := buildCopyCompressed(t, excProgram, false)
	c, _ := runImage(t, im)
	s := c.Stats
	if s.Exceptions == 0 {
		t.Fatal("no exceptions taken")
	}
	if s.ExcCyclesTotal == 0 || s.ExcCyclesMax == 0 {
		t.Fatalf("latency totals empty: %+v", s)
	}
	avg := s.AvgExcCycles()
	if avg <= 0 || avg > float64(s.ExcCyclesMax) {
		t.Fatalf("avg %f outside (0, max=%d]", avg, s.ExcCyclesMax)
	}
	if got := avg * float64(s.Exceptions); got != float64(s.ExcCyclesTotal) {
		t.Fatalf("avg*count = %f, total = %d", got, s.ExcCyclesTotal)
	}
	if s.ExcCyclesMax > s.ExcCyclesTotal {
		t.Fatalf("max %d exceeds total %d", s.ExcCyclesMax, s.ExcCyclesTotal)
	}
	// Every service interval runs the same straight-line copy handler, so
	// the worst case can exceed the mean only through cache and bus
	// timing, never by more than the service itself takes.
	if float64(s.ExcCyclesMax) > 4*avg {
		t.Fatalf("max %d implausibly far from mean %f", s.ExcCyclesMax, avg)
	}
}

// TestCPIStackDecomposition checks the attribution on both sides of the
// compression boundary: a native run charges nothing to handler or
// exception service, a compressed run charges both, and each attributed
// sum equals the cycle total exactly.
func TestCPIStackDecomposition(t *testing.T) {
	nativeSrc := excProgram // same code, backed .text
	nat, err := asm.Assemble(nativeSrc)
	if err != nil {
		t.Fatal(err)
	}
	// Force the native image into backed memory (excProgram places .text
	// at CompBase, which Load treats as plain memory absent Compress).
	cNat, _ := runImage(t, nat)
	if got := cNat.Stats.CPIStack.Total(); got != cNat.Stats.Cycles {
		t.Fatalf("native stack sums to %d, cycles %d", got, cNat.Stats.Cycles)
	}
	if cNat.Stats.CPIStack[CycleHandler] != 0 || cNat.Stats.CPIStack[CycleExcService] != 0 {
		t.Fatalf("native run charged handler/exception cycles: %v", cNat.Stats.CPIStack)
	}
	if cNat.Stats.CPIStack[CycleUser] != cNat.Stats.Instrs {
		t.Fatalf("user-execute %d != instrs %d", cNat.Stats.CPIStack[CycleUser], cNat.Stats.Instrs)
	}

	cComp, _ := runImage(t, buildCopyCompressed(t, excProgram, false))
	st := cComp.Stats
	if got := st.CPIStack.Total(); got != st.Cycles {
		t.Fatalf("compressed stack sums to %d, cycles %d", got, st.Cycles)
	}
	if st.CPIStack[CycleHandler] == 0 || st.CPIStack[CycleExcService] == 0 {
		t.Fatalf("compressed run charged no handler/exception cycles: %v", st.CPIStack)
	}
	if err := st.CPIStack.Check(st.Cycles); err != nil {
		t.Fatal(err)
	}
	if err := st.CPIStack.Check(st.Cycles + 1); err == nil {
		t.Fatal("Check accepted a wrong total")
	}
}
