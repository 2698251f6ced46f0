package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/profile"
)

// Folded-stack (flamegraph) exporter. The attribution profile records
// per-procedure self counts and dynamic call edges, not full stacks, so
// the exporter reconstructs stacks from the call graph: a procedure's
// self execution count is distributed over the stacks that reach it,
// splitting at each join proportionally to the incoming call-edge
// weights. For call graphs without recursion (every synthetic benchmark
// and generated random program) the reconstruction is exact up to
// integer rounding; recursive edges are cut at the first repeat, so a
// cycle appears as a single frame instead of an unbounded tower. The
// output is Brendan Gregg's folded format — one "proc_a;proc_b;proc_c
// count" line per stack — consumable by flamegraph.pl and speedscope.

const (
	flameMaxDepth = 64
	flameMinShare = 1e-4
)

// WriteFolded writes the profile's user instructions per procedure
// (Cost.Instrs) as folded stacks. Roots are the procedures no recorded
// call edge targets (main, plus anything only reached by jumps that are
// not calls); the outside bucket is not a procedure and is left out.
func WriteFolded(w io.Writer, p *profile.Profile) error {
	n := len(p.Procs)
	if n > 0 && p.Procs[n-1].Name == profile.OutsideName {
		n--
	}
	if n == 0 {
		return fmt.Errorf("telemetry: empty procedure table")
	}
	// Incoming-call totals and a deterministic adjacency list.
	in := make([]uint64, n)
	out := make([][][2]int, n) // caller -> [(callee, -)], weight looked up in Calls
	type edge struct{ from, to int }
	var edges []edge
	for k := range p.Calls {
		edges = append(edges, edge{k[0], k[1]})
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].from != edges[b].from {
			return edges[a].from < edges[b].from
		}
		return edges[a].to < edges[b].to
	})
	for _, e := range edges {
		w := p.Calls[[2]int{e.from, e.to}]
		in[e.to] += w
		out[e.from] = append(out[e.from], [2]int{e.to, int(w)})
	}

	var lines []string
	onStack := make([]bool, n)
	var walk func(i int, stack []string, share float64)
	walk = func(i int, stack []string, share float64) {
		stack = append(stack, p.Procs[i].Name)
		if self := float64(p.Procs[i].Instrs) * share; self >= 0.5 {
			lines = append(lines, fmt.Sprintf("%s %d", strings.Join(stack, ";"), uint64(self+0.5)))
		}
		if len(stack) >= flameMaxDepth {
			return
		}
		onStack[i] = true
		for _, oe := range out[i] {
			callee := oe[0]
			if onStack[callee] || in[callee] == 0 {
				continue
			}
			childShare := share * float64(oe[1]) / float64(in[callee])
			if childShare < flameMinShare {
				continue
			}
			walk(callee, stack, childShare)
		}
		onStack[i] = false
	}
	for i := 0; i < n; i++ {
		if in[i] == 0 && p.Procs[i].Instrs > 0 {
			walk(i, nil, 1)
		}
	}
	if len(lines) == 0 {
		return fmt.Errorf("telemetry: profile has no executed root procedure")
	}
	_, err := io.WriteString(w, strings.Join(lines, "\n")+"\n")
	return err
}
