package bpu

// This file supports SMARTS-style functional warming: during sampled
// simulation's fast-forward phase the functional emulator feeds every
// architecturally-resolved conditional branch through Warm, and the
// interval scheduler snapshots the warmed predictor per window via Clone
// so parallel windows each start from the exact predictor state a
// non-speculative run would have reached.

// Cloner is implemented by predictors whose complete state (tables,
// counters, global history) can be deep-copied. All predictors in this
// package implement it; sampled simulation requires it so that windows
// can be dealt out to parallel workers without re-warming from scratch.
type Cloner interface {
	// Clone returns an independent deep copy of the predictor. Mutating
	// either copy never affects the other.
	Clone() Predictor
}

// Warm trains p with one architecturally-resolved conditional branch,
// reproducing what a run with no mispredictions would do: predict, shift
// the true outcome into the speculative global history (fetch), then train
// with the resolved direction (retire). Feeding every branch of a
// fast-forwarded region through Warm leaves the predictor in the state an
// ideal front end would have reached — the standard functional-warming
// approximation (wrong-path history pollution is not modeled). A *TAGE
// takes the same steps without copying its Prediction.
func Warm(p Predictor, pc uint64, taken bool) {
	if t, ok := p.(*TAGE); ok {
		t.warm(pc, taken)
		return
	}
	pred := p.Predict(pc, taken)
	p.PushHistory(pc, taken)
	p.Update(pc, pred, taken)
}

// Clone implements Cloner.
func (t *TAGE) Clone() Predictor {
	c := *t
	c.base = append([]int8(nil), t.base...)
	c.entries = make([][]tageEntry, len(t.entries))
	for i, tbl := range t.entries {
		c.entries[i] = append([]tageEntry(nil), tbl...)
	}
	return &c
}

// Clone implements Cloner.
func (b *Bimodal) Clone() Predictor {
	c := *b
	c.ctrs = append([]int8(nil), b.ctrs...)
	return &c
}

// Clone implements Cloner.
func (g *GShare) Clone() Predictor {
	c := *g
	c.ctrs = append([]int8(nil), g.ctrs...)
	return &c
}

// Clone implements Cloner.
func (p *Perceptron) Clone() Predictor {
	c := *p
	c.weights = make([][]int8, len(p.weights))
	for i, w := range p.weights {
		c.weights[i] = append([]int8(nil), w...)
	}
	return &c
}

// Clone implements Cloner.
func (o *Oracle) Clone() Predictor {
	c := *o
	return &c
}
