// Package placement implements profile-guided procedure placement in the
// style of Pettis & Hansen ("Profile Guided Code Positioning", PLDI'90),
// which the paper cites and names — combined with selective compression —
// as future work ("an interesting area for future work would be to
// develop a unified selective compression and code placement framework",
// §5.3). The optimiser orders procedures so that procedures that call
// each other frequently are adjacent, reducing I-cache conflict misses
// and therefore decompression work.
package placement

import (
	"sort"

	"repro/internal/profile"
)

// Order computes a procedure order from the profile's call-affinity graph
// using the Pettis–Hansen greedy chain-merging algorithm:
//
//  1. every procedure starts as its own chain;
//  2. call edges are visited by descending weight;
//  3. if the edge's endpoints are the tail of one chain and the head of
//     another (possibly after flipping a chain), the chains are joined;
//  4. remaining chains are emitted by descending total execution weight.
//
// The returned slice lists procedure names in layout order and always
// contains every procedure of the profile exactly once (the outside
// bucket is not a procedure).
func Order(prof *profile.Profile) []string {
	n := len(prof.Procs)
	if n > 0 && prof.Procs[n-1].Name == profile.OutsideName {
		n--
	}
	chains := make([][]int, n)
	where := make([]int, n) // procedure -> chain id (-1 = consumed)
	for i := 0; i < n; i++ {
		chains[i] = []int{i}
		where[i] = i
	}

	type edge struct {
		a, b int
		w    uint64
	}
	var edges []edge
	merged := make(map[[2]int]uint64)
	for k, w := range prof.Calls {
		a, b := k[0], k[1]
		if a == b {
			continue // self-calls do not constrain placement
		}
		if a > b {
			a, b = b, a
		}
		merged[[2]int{a, b}] += w
	}
	for k, w := range merged {
		edges = append(edges, edge{k[0], k[1], w})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].w != edges[j].w {
			return edges[i].w > edges[j].w
		}
		if edges[i].a != edges[j].a {
			return edges[i].a < edges[j].a
		}
		return edges[i].b < edges[j].b
	})

	find := func(p int) int { return where[p] }
	for _, e := range edges {
		ca, cb := find(e.a), find(e.b)
		if ca == cb {
			continue
		}
		a, b := chains[ca], chains[cb]
		// Orient the chains so e.a ends chain a and e.b starts chain b.
		if a[0] == e.a {
			reverse(a)
		}
		if a[len(a)-1] != e.a {
			continue // e.a is interior: cannot join without splitting
		}
		if b[len(b)-1] == e.b {
			reverse(b)
		}
		if b[0] != e.b {
			continue
		}
		chains[ca] = append(a, b...)
		for _, p := range b {
			where[p] = ca
		}
		chains[cb] = nil
	}

	// Emit chains by descending execution weight so the hottest cluster
	// lands at the region base.
	type scored struct {
		id int
		w  uint64
	}
	var out []scored
	for id, ch := range chains {
		if len(ch) == 0 {
			continue
		}
		var w uint64
		for _, p := range ch {
			w += prof.Procs[p].Instrs
		}
		out = append(out, scored{id, w})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].w != out[j].w {
			return out[i].w > out[j].w
		}
		return out[i].id < out[j].id
	})
	var names []string
	for _, s := range out {
		for _, p := range chains[s.id] {
			names = append(names, prof.Procs[p].Name)
		}
	}
	return names
}

func reverse(s []int) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}
