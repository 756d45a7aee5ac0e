package bpu

import "testing"

// TestPredictionHistIsFetchHistory pins the contract the core builds on:
// a prediction's Hist is the global history just before Predict, and
// Predict leaves the history as it found it. The core reads a branch's
// fetch-time history from its prediction (flush repair, the scheme's
// ShouldPredicate and ResolveEvent) instead of asking the predictor
// again. Every predictor New builds runs a random sequence of predicts,
// updates, history pushes and history restores.
func TestPredictionHistIsFetchHistory(t *testing.T) {
	for _, name := range Names() {
		p, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		x := uint64(0x9E3779B97F4A7C15)
		rnd := func() uint64 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return x
		}
		type pending struct {
			pc   uint64
			pred Prediction
		}
		var inflight []pending
		for i := 0; i < 20_000; i++ {
			r := rnd()
			pc := 4 * (r >> 8 % 64)
			taken := r>>16&1 == 1
			switch r % 8 {
			case 0, 1, 2, 3:
				before := p.History()
				pred := p.Predict(pc, taken)
				if pred.Hist != before {
					t.Fatalf("%s: op %d: Predict's Hist %#x, History() before it %#x", name, i, pred.Hist, before)
				}
				if after := p.History(); after != before {
					t.Fatalf("%s: op %d: Predict moved the history %#x -> %#x", name, i, before, after)
				}
				inflight = append(inflight, pending{pc, pred})
			case 4, 5:
				if len(inflight) > 0 {
					u := inflight[0]
					inflight = inflight[1:]
					p.Update(u.pc, u.pred, taken)
				}
			case 6:
				p.PushHistory(pc, taken)
			case 7:
				p.SetHistory(rnd())
			}
		}
	}
}
