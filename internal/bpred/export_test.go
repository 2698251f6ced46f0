package bpred

// Predict returns the predicted direction for the branch at pc, for
// tests: the simulator reads the prediction only inside Update.
func (p *Predictor) Predict(pc uint32) bool {
	return p.table[p.idx(pc)] >= 2
}
