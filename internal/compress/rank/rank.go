// Package rank orders the symbols of a frequency-ranked code. Both the
// dictionary (§3.1) and the CodePack (§3.2) encoders give their most
// frequent symbols the smallest codes, ties broken by first appearance.
package rank

// ByCount returns the indices of counts ordered by descending count,
// equal counts in index order. Callers number their symbols in order of
// first appearance, so ties fall in first-appearance order. It is a
// stable counting sort: linear in len(counts) plus the largest count.
// Counts must not be negative.
func ByCount(counts []int32) []int32 {
	var most int32
	for _, c := range counts {
		most = max(most, c)
	}
	// next[c] is the next output slot for count c: a histogram turned
	// into running starts, highest count first.
	next := make([]int32, most+1)
	for _, c := range counts {
		next[c]++
	}
	var pos int32
	for c := most; c >= 0; c-- {
		next[c], pos = pos, pos+next[c]
	}
	order := make([]int32, len(counts))
	for i, c := range counts {
		order[next[c]] = int32(i)
		next[c]++
	}
	return order
}
