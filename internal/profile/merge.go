package profile

import (
	"fmt"
	"sort"
)

// Merge combines per-shard profiles of the same image geometry into one
// aggregate, as if a single recorder had observed every run. It is
// associative and commutative — counter fields sum, ExcCyclesMax
// max-merges, line records union by address, procedure records align by
// name and call counts sum by caller and callee name — so a sharded
// collection merges byte-identically to a serial one regardless of
// shard order or grouping (merge_test.go proves it).
//
// Identity fields (image, scheme) survive only when every part agrees;
// the manifest never does — a merged profile is not one run, so it
// carries no single run's provenance.
func Merge(parts ...*Profile) (*Profile, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("profile: merge of zero profiles")
	}
	first := parts[0]
	out := &Profile{
		SchemaVersion: first.SchemaVersion,
		Image:         first.Image,
		Scheme:        first.Scheme,
		LineBytes:     first.LineBytes,
	}
	lines := make(map[uint32]Cost)
	procs := make(map[string]*ProcCost)
	calls := make(map[[2]string]uint64)
	var procOrder []string
	for _, p := range parts {
		if p.SchemaVersion != first.SchemaVersion {
			return nil, fmt.Errorf("profile: merge of artifact schema %d with schema %d",
				first.SchemaVersion, p.SchemaVersion)
		}
		if p.LineBytes != first.LineBytes {
			return nil, fmt.Errorf("profile: merge of line geometry %dB with %dB",
				first.LineBytes, p.LineBytes)
		}
		if p.Image != out.Image {
			out.Image = ""
		}
		if p.Scheme != out.Scheme {
			out.Scheme = ""
		}
		out.Total.Add(p.Total)
		for _, l := range p.Lines {
			c := lines[l.Addr]
			c.Add(l.Cost)
			lines[l.Addr] = c
		}
		for _, pr := range p.Procs {
			b := procs[pr.Name]
			if b == nil {
				b = &ProcCost{Name: pr.Name, Addr: pr.Addr}
				procs[pr.Name] = b
				procOrder = append(procOrder, pr.Name)
			}
			b.Cost.Add(pr.Cost)
		}
		for k, n := range p.Calls {
			calls[[2]string{p.Procs[k[0]].Name, p.Procs[k[1]].Name}] += n
		}
	}
	addrs := make([]uint32, 0, len(lines))
	for a := range lines {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		if c := lines[a]; !c.IsZero() {
			out.Lines = append(out.Lines, LineCost{Addr: a, Cost: c})
		}
	}
	// Procedure order: address ascending, name-tie ascending, with the
	// outside bucket last — the recorder's own order, independent of the
	// order shards arrived in.
	sort.SliceStable(procOrder, func(i, j int) bool {
		a, b := procs[procOrder[i]], procs[procOrder[j]]
		if (a.Name == OutsideName) != (b.Name == OutsideName) {
			return b.Name == OutsideName
		}
		if a.Addr != b.Addr {
			return a.Addr < b.Addr
		}
		return a.Name < b.Name
	})
	index := make(map[string]int, len(procOrder))
	for _, name := range procOrder {
		pr := procs[name]
		if pr.Name == OutsideName && pr.Cost.IsZero() {
			continue
		}
		index[name] = len(out.Procs)
		out.Procs = append(out.Procs, *pr)
	}
	out.Calls = make(map[[2]int]uint64, len(calls))
	for k, n := range calls {
		out.Calls[[2]int{index[k[0]], index[k[1]]}] = n
	}
	return out, nil
}
