package bpred

// Transfer is what a run of resolved branches that all index one
// counter does to the predictor, from each of the counter's four start
// states: the end state and the number of mispredicts. Applying it
// (Apply) leaves the table, Lookups and Mispredicts as calling Update
// once per branch would; a sequence of branches that index several
// counters is one Transfer per counter, applied in any order.
type Transfer struct {
	index   uint32
	lookups uint32
	end     uint8     // bits 2s+1..2s: the end state from start state s
	miss    [4]uint32 // mispredicts from each start state
}

// transfer tables, indexed by taken and a packed end-state byte: the
// byte one more outcome leaves, and the start states (bit s) whose
// trajectory mispredicts it.
var nextEnd, missed [2][256]uint8

func init() {
	for t := range 2 {
		for e := range 256 {
			for s := range 4 {
				st := uint8(e >> (2 * s) & 3)
				if (st >= 2) != (t == 1) {
					missed[t][e] |= 1 << s
				}
				switch {
				case t == 1 && st < 3:
					st++
				case t == 0 && st > 0:
					st--
				}
				nextEnd[t][e] |= st << (2 * s)
			}
		}
	}
}

// Transfer returns the transfer of no branches at pc's counter: each
// start state ends where it started.
func (p *Predictor) Transfer(pc uint32) Transfer {
	return Transfer{index: p.idx(pc), end: 3<<6 | 2<<4 | 1<<2}
}

// Entries is the number of counters.
func (p *Predictor) Entries() int { return len(p.table) }

// Index is the counter t applies to.
func (t *Transfer) Index() uint32 { return t.index }

// Add appends one resolved branch to t.
func (t *Transfer) Add(taken bool) {
	k := 0
	if taken {
		k = 1
	}
	m := missed[k][t.end]
	t.miss[0] += uint32(m & 1)
	t.miss[1] += uint32(m >> 1 & 1)
	t.miss[2] += uint32(m >> 2 & 1)
	t.miss[3] += uint32(m >> 3)
	t.end = nextEnd[k][t.end]
	t.lookups++
}

// Apply trains the predictor with t's branches and returns how many of
// them it mispredicted. It does not call OnResolve: a caller with an
// observer attached must Update branch by branch instead.
func (p *Predictor) Apply(t *Transfer) uint64 {
	s := p.table[t.index]
	p.table[t.index] = t.end >> (2 * s) & 3
	m := uint64(t.miss[s])
	p.Lookups += uint64(t.lookups)
	p.Mispredicts += m
	return m
}
