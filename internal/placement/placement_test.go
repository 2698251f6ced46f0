package placement

import (
	"sort"
	"testing"

	"repro/internal/profile"
)

func profileWith(names []string, execs []uint64, calls map[[2]int]uint64) *profile.Profile {
	p := &profile.Profile{Calls: calls}
	for i, n := range names {
		pc := profile.ProcCost{Name: n, Addr: uint32(0x400000 + 64*i)}
		pc.Instrs = execs[i]
		p.Procs = append(p.Procs, pc)
	}
	return p
}

func indexOf(order []string, name string) int {
	for i, n := range order {
		if n == name {
			return i
		}
	}
	return -1
}

func TestOrderCoversEveryProcedureOnce(t *testing.T) {
	prof := profileWith(
		[]string{"a", "b", "c", "d", "e"},
		[]uint64{5, 4, 3, 2, 1},
		map[[2]int]uint64{{0, 1}: 10, {2, 3}: 5},
	)
	order := Order(prof)
	if len(order) != 5 {
		t.Fatalf("order = %v", order)
	}
	sorted := append([]string(nil), order...)
	sort.Strings(sorted)
	want := []string{"a", "b", "c", "d", "e"}
	for i := range want {
		if sorted[i] != want[i] {
			t.Fatalf("order %v is not a permutation", order)
		}
	}
}

// TestOrderSkipsOutsideBucket: the outside bucket collects commits at
// no procedure, so it has no place in a layout.
func TestOrderSkipsOutsideBucket(t *testing.T) {
	prof := profileWith(
		[]string{"a", "b", profile.OutsideName},
		[]uint64{1, 2, 1000},
		map[[2]int]uint64{{0, 1}: 3},
	)
	if got := Order(prof); len(got) != 2 || indexOf(got, profile.OutsideName) >= 0 {
		t.Fatalf("order = %v, want a and b only", got)
	}
}

func TestHeavyCallersBecomeAdjacent(t *testing.T) {
	prof := profileWith(
		[]string{"main", "x", "y", "z"},
		[]uint64{100, 50, 50, 50},
		map[[2]int]uint64{
			{0, 2}: 1000, // main <-> y : hottest edge
			{0, 1}: 10,
			{1, 3}: 500, // x <-> z
		},
	)
	order := Order(prof)
	mi, yi := indexOf(order, "main"), indexOf(order, "y")
	if abs(mi-yi) != 1 {
		t.Fatalf("main and y must be adjacent: %v", order)
	}
	xi, zi := indexOf(order, "x"), indexOf(order, "z")
	if abs(xi-zi) != 1 {
		t.Fatalf("x and z must be adjacent: %v", order)
	}
}

func TestSelfCallsIgnored(t *testing.T) {
	prof := profileWith(
		[]string{"rec", "other"},
		[]uint64{10, 5},
		map[[2]int]uint64{{0, 0}: 100000},
	)
	order := Order(prof)
	if len(order) != 2 {
		t.Fatalf("order = %v", order)
	}
}

func TestBidirectionalEdgesMerge(t *testing.T) {
	// a->b and b->a should combine into one strong affinity.
	prof := profileWith(
		[]string{"a", "b", "c"},
		[]uint64{1, 1, 1},
		map[[2]int]uint64{
			{0, 1}: 30,
			{1, 0}: 30,
			{0, 2}: 40, // weaker than merged a<->b (60)
		},
	)
	order := Order(prof)
	ai, bi := indexOf(order, "a"), indexOf(order, "b")
	if abs(ai-bi) != 1 {
		t.Fatalf("a and b must be adjacent after edge merge: %v", order)
	}
}

func TestHottestChainFirst(t *testing.T) {
	prof := profileWith(
		[]string{"cold1", "cold2", "hot1", "hot2"},
		[]uint64{1, 1, 1000, 1000},
		map[[2]int]uint64{
			{0, 1}: 5,
			{2, 3}: 5,
		},
	)
	order := Order(prof)
	if indexOf(order, "hot1") > 1 || indexOf(order, "hot2") > 1 {
		t.Fatalf("hot chain must lead: %v", order)
	}
}

func TestEmptyProfile(t *testing.T) {
	prof := profileWith(nil, nil, map[[2]int]uint64{})
	if got := Order(prof); len(got) != 0 {
		t.Fatalf("order = %v", got)
	}
}

func TestDeterminism(t *testing.T) {
	prof := profileWith(
		[]string{"a", "b", "c", "d"},
		[]uint64{4, 3, 2, 1},
		map[[2]int]uint64{{0, 1}: 7, {2, 3}: 7, {1, 2}: 7},
	)
	first := Order(prof)
	for i := 0; i < 20; i++ {
		got := Order(prof)
		for j := range first {
			if got[j] != first[j] {
				t.Fatalf("non-deterministic order: %v vs %v", got, first)
			}
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
