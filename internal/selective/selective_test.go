package selective

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/profile"
)

// profileOf builds a synthetic profile directly: each procedure's
// misses are split between native fills and decompression exceptions
// (the miss policy ranks their sum), and each miss stalls fetch for 7
// cycles.
func profileOf(names []string, execs, misses []uint64) *profile.Profile {
	p := &profile.Profile{}
	for i, n := range names {
		pc := profile.ProcCost{Name: n, Addr: uint32(0x400000 + 64*i)}
		pc.Instrs = execs[i]
		pc.IMissNative, pc.IMissCompressed = misses[i]-misses[i]/2, misses[i]/2
		pc.CPIStack[cpu.CycleFetchStall] = 7 * misses[i]
		p.Procs = append(p.Procs, pc)
	}
	return p
}

// attrProfile builds a profile whose procedures cost the given
// instruction-delivery cycles, spread over handler, exception-service
// and fetch-stall cycles.
func attrProfile(costs map[string]uint64) *profile.Profile {
	p := &profile.Profile{SchemaVersion: profile.ArtifactSchema, LineBytes: 32}
	addr := uint32(0x00400000)
	for _, name := range []string{"hot", "warm", "cold", "idle"} {
		m, ok := costs[name]
		if !ok {
			continue
		}
		var c profile.Cost
		c.CPIStack[cpu.CycleHandler] = m / 2
		c.CPIStack[cpu.CycleExcService] = m / 4
		c.CPIStack[cpu.CycleFetchStall] = m - m/2 - m/4
		c.Cycles = m
		p.Procs = append(p.Procs, profile.ProcCost{Name: name, Addr: addr, Cost: c})
		addr += 0x100
	}
	return p
}

func TestSelectByExecution(t *testing.T) {
	prof := profileOf(
		[]string{"a", "b", "c", "d"},
		[]uint64{500, 300, 150, 50}, // total 1000
		[]uint64{1, 1, 1, 1},
	)
	sel := Select(prof, ByExecution, 0.05)
	if len(sel) != 1 || !sel["a"] {
		t.Fatalf("5%%: %v", sel)
	}
	sel = Select(prof, ByExecution, 0.50)
	if len(sel) != 1 || !sel["a"] {
		t.Fatalf("50%% reached by a alone: %v", sel)
	}
	sel = Select(prof, ByExecution, 0.60)
	if len(sel) != 2 || !sel["a"] || !sel["b"] {
		t.Fatalf("60%%: %v", sel)
	}
	sel = Select(prof, ByExecution, 1.0)
	if len(sel) != 4 {
		t.Fatalf("100%%: %v", sel)
	}
}

func TestSelectByMisses(t *testing.T) {
	prof := profileOf(
		[]string{"hotloop", "coldpath"},
		[]uint64{10000, 100}, // hotloop dominates execution
		[]uint64{1, 99},      // but coldpath owns the misses
	)
	exec := Select(prof, ByExecution, 0.20)
	miss := Select(prof, ByMisses, 0.20)
	if !exec["hotloop"] || exec["coldpath"] {
		t.Fatalf("exec selection: %v", exec)
	}
	if !miss["coldpath"] || miss["hotloop"] {
		t.Fatalf("miss selection: %v", miss)
	}
}

func TestSelectEdgeCases(t *testing.T) {
	prof := profileOf([]string{"a"}, []uint64{10}, []uint64{0})
	if len(Select(prof, ByExecution, 0)) != 0 {
		t.Fatal("fraction 0 must select nothing")
	}
	if len(Select(prof, ByExecution, -1)) != 0 {
		t.Fatal("negative fraction must select nothing")
	}
	// No misses at all: miss-based selection selects nothing.
	if len(Select(prof, ByMisses, 0.5)) != 0 {
		t.Fatal("zero-metric selection must be empty")
	}
}

func TestSelectSkipsZeroCountProcs(t *testing.T) {
	prof := profileOf(
		[]string{"a", "dead"},
		[]uint64{100, 0},
		[]uint64{0, 0},
	)
	sel := Select(prof, ByExecution, 1.0)
	if sel["dead"] {
		t.Fatal("never-executed procedure must not be selected")
	}
}

func TestProfileEndToEnd(t *testing.T) {
	im, err := asm.Assemble(`
        .text
        .proc main
main:   ori   $s0, $zero, 100
loop:   jal   work
        addiu $s0, $s0, -1
        bgtz  $s0, loop
        move  $a0, $zero
        ori   $v0, $zero, 10
        syscall
        .endp
        .proc work
work:   ori   $t0, $zero, 20
w1:     addiu $t0, $t0, -1
        bgtz  $t0, w1
        jr    $ra
        .endp
`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cpu.DefaultConfig()
	cfg.MaxInstr = 1_000_000
	prof, stats, err := Profile(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Instrs == 0 {
		t.Fatal("no instructions profiled")
	}
	we, me := prof.ProcByName("work").Instrs, prof.ProcByName("main").Instrs
	if we <= me {
		t.Fatalf("work (%d) should out-execute main (%d)", we, me)
	}
	sel := Select(prof, ByExecution, 0.05)
	if !sel["work"] {
		t.Fatalf("exec selection must pick the hot loop: %v", sel)
	}
}

// Property: selection is monotone — a larger coverage fraction never
// deselects a procedure chosen at a smaller fraction.
func TestQuickSelectionMonotone(t *testing.T) {
	f := func(seed int64, aRaw, bRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(30) + 2
		names := make([]string, n)
		execs := make([]uint64, n)
		misses := make([]uint64, n)
		for i := range names {
			names[i] = fmt.Sprintf("p%02d", i)
			execs[i] = uint64(r.Intn(10000))
			misses[i] = uint64(r.Intn(1000))
		}
		prof := profileOf(names, execs, misses)
		a := float64(aRaw%101) / 100
		b := float64(bRaw%101) / 100
		if a > b {
			a, b = b, a
		}
		for _, policy := range []Policy{ByExecution, ByMisses, ByCost} {
			small := Select(prof, policy, a)
			large := Select(prof, policy, b)
			for name := range small {
				if !large[name] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestFromProfileCoverage checks the cost ranking on a measured
// attribution profile: procedures by Cost.MissCost, up to the coverage
// goal.
func TestFromProfileCoverage(t *testing.T) {
	p := attrProfile(map[string]uint64{"hot": 8000, "warm": 1500, "cold": 500, "idle": 0})
	// 10% of 10000 = 1000: hot alone crosses the goal.
	sel := Select(p, ByCost, 0.10)
	if len(sel) != 1 || !sel["hot"] {
		t.Fatalf("10%% selection = %v", sel)
	}
	// 85% needs hot+warm (8000+1500 >= 8500).
	sel = Select(p, ByCost, 0.85)
	if len(sel) != 2 || !sel["hot"] || !sel["warm"] {
		t.Fatalf("85%% selection = %v", sel)
	}
	// Full coverage still never selects a zero-cost procedure.
	sel = Select(p, ByCost, 1.0)
	if sel["idle"] {
		t.Fatal("zero-cost procedure selected")
	}
	if len(Select(p, ByCost, 0)) != 0 {
		t.Fatal("fraction 0 selected something")
	}
	if len(Select(nil, ByCost, 0.5)) != 0 {
		t.Fatal("nil profile selected something")
	}
}

// TestFromProfileTieBreakAndOutside checks, under every policy, that
// equal metrics rank by address and that the outside bucket is never
// selected nor counted in the total.
func TestFromProfileTieBreakAndOutside(t *testing.T) {
	p := attrProfile(map[string]uint64{"hot": 1000, "warm": 1000, "cold": 1000})
	for i := range p.Procs {
		p.Procs[i].Instrs, p.Procs[i].IMissNative = 1000, 10
	}
	out := profile.ProcCost{Name: profile.OutsideName}
	out.Instrs, out.IMissNative = 1<<40, 1<<40
	out.CPIStack[cpu.CycleFetchStall] = 1 << 40
	p.Procs = append(p.Procs, out)
	for _, policy := range []Policy{ByExecution, ByMisses, ByCost} {
		// Equal metrics: address order decides, and the first procedure
		// alone crosses a 30% goal.
		sel := Select(p, policy, 0.30)
		if len(sel) != 1 || !sel["hot"] {
			t.Errorf("%v: tie-break selection = %v", policy, sel)
		}
		sel = Select(p, policy, 1.0)
		if len(sel) != 3 || sel[profile.OutsideName] {
			t.Errorf("%v: full selection = %v, want the three procedures", policy, sel)
		}
	}
}
