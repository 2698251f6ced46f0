// Package bpred implements the bimodal branch predictor of the paper's
// baseline machine (Table 1: "bimode 2048 entries").
package bpred

// Predictor is a table of 2-bit saturating counters indexed by PC.
type Predictor struct {
	table []uint8
	mask  uint32

	Lookups     uint64
	Mispredicts uint64

	// OnResolve, when set, observes every resolved branch: its address,
	// the actual direction and whether the prediction was correct. Nil
	// costs nothing; internal/telemetry counts mispredict events with it.
	OnResolve func(pc uint32, taken, correct bool)
}

// New builds a predictor with the given number of entries (a power of
// two; the paper uses 2048). Counters start weakly not-taken.
func New(entries int) *Predictor {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("bpred: entries must be a positive power of two")
	}
	p := &Predictor{table: make([]uint8, entries), mask: uint32(entries - 1)}
	for i := range p.table {
		p.table[i] = 1 // weakly not-taken
	}
	return p
}

func (p *Predictor) idx(pc uint32) uint32 { return pc >> 2 & p.mask }

// Update trains the predictor with the resolved direction and reports
// whether the prediction was correct.
func (p *Predictor) Update(pc uint32, taken bool) bool {
	i := p.idx(pc)
	pred := p.table[i] >= 2
	if taken {
		if p.table[i] < 3 {
			p.table[i]++
		}
	} else if p.table[i] > 0 {
		p.table[i]--
	}
	p.Lookups++
	if pred != taken {
		p.Mispredicts++
	}
	if p.OnResolve != nil {
		p.OnResolve(pc, taken, pred == taken)
	}
	return pred == taken
}

// MispredictRatio returns Mispredicts/Lookups (0 when idle).
func (p *Predictor) MispredictRatio() float64 {
	if p.Lookups == 0 {
		return 0
	}
	return float64(p.Mispredicts) / float64(p.Lookups)
}
