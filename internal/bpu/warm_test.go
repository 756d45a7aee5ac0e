package bpu

import "testing"

// trainStream feeds n pseudo-random (pc, outcome) pairs through Warm.
func trainStream(p Predictor, n int) {
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		pc := (x >> 5) & 0x3FF
		taken := x&3 != 0
		Warm(p, pc, taken)
	}
}

// predictions samples each predictor's response to a probe stream without
// mutating state order-dependently: both copies see the identical stream.
func predictions(p Predictor, n int) []bool {
	out := make([]bool, 0, n)
	x := uint64(12345)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		pc := (x >> 5) & 0x3FF
		taken := x&1 == 0
		pred := p.Predict(pc, taken)
		out = append(out, pred.Taken)
		p.PushHistory(pc, taken)
		p.Update(pc, pred, taken)
	}
	return out
}

func clonePredictors(t *testing.T) map[string]Predictor {
	t.Helper()
	return map[string]Predictor{
		"tage":       NewTAGE(DefaultTAGEConfig()),
		"bimodal":    NewBimodal(12),
		"gshare":     NewGShare(12, 12),
		"perceptron": NewPerceptron(8, 16),
		"oracle":     NewOracle(),
	}
}

// TestCloneIndependence trains a predictor, clones it, then drives the two
// copies apart: the clone must behave identically right after Clone, and
// mutating one copy must not disturb the other.
func TestCloneIndependence(t *testing.T) {
	for name, p := range clonePredictors(t) {
		t.Run(name, func(t *testing.T) {
			trainStream(p, 4096)
			cl, ok := p.(Cloner)
			if !ok {
				t.Fatalf("%s does not implement Cloner", name)
			}
			c := cl.Clone()
			if c == p {
				t.Fatalf("Clone returned the receiver")
			}
			if p.History() != c.History() {
				t.Fatalf("clone history %#x != original %#x", c.History(), p.History())
			}

			// Push the ORIGINAL far away from the clone's state...
			x := uint64(0xDEAD)
			for i := 0; i < 4096; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				Warm(p, (x>>4)&0x3FF, x&1 == 0)
			}
			// ...then compare the clone against a predictor trained only on
			// the original stream: identical probe behavior proves the
			// clone kept its own state.
			fresh := clonePredictors(t)[name]
			trainStream(fresh, 4096)
			got := predictions(c, 512)
			want := predictions(fresh, 512)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("probe %d: clone predicts %v, independently-trained twin predicts %v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestWarmTrainsPredictor checks that functional warming actually teaches a
// predictor: after seeing a strongly-biased branch many times, the
// predictor must predict its direction.
func TestWarmTrainsPredictor(t *testing.T) {
	for name, p := range clonePredictors(t) {
		if name == "oracle" {
			continue // the oracle ignores training by construction
		}
		t.Run(name, func(t *testing.T) {
			const pc = 0x40
			for i := 0; i < 256; i++ {
				Warm(p, pc, true)
			}
			if !p.Predict(pc, true).Taken {
				t.Fatalf("%s predicts not-taken after 256 taken outcomes", name)
			}
		})
	}
}

// genericOnly hides a predictor's concrete type, so Warm takes the
// generic Predict, PushHistory, Update sequence.
type genericOnly struct{ Predictor }

// TestTAGEWarmMatchesGenericPath warms one TAGE through Warm's TAGE path
// and another through the generic sequence, over more than 2^18 branches
// so the usefulness aging runs, and compares their whole state.
func TestTAGEWarmMatchesGenericPath(t *testing.T) {
	fast, slow := NewTAGE(DefaultTAGEConfig()), NewTAGE(DefaultTAGEConfig())
	generic := genericOnly{slow}
	const n = 1<<18 + 40_000
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		// 4k branch sites; a third random, the rest following a history
		// pattern, so predictions miss, allocate and age.
		pc := (x >> 8) & 0xFFF
		taken := x&1 == 0
		if pc%3 != 0 {
			taken = (fast.hist>>(pc%7))&1 == 1
		}
		Warm(fast, pc, taken)
		Warm(generic, pc, taken)
	}
	if slow.tick != n-(1<<18) {
		t.Fatalf("tick = %d: the usefulness aging did not run once", slow.tick)
	}
	if fast.hist != slow.hist || fast.rng != slow.rng || fast.tick != slow.tick || fast.useAltOnNA != slow.useAltOnNA {
		t.Fatalf("hist %#x/%#x, rng %#x/%#x, tick %d/%d, useAltOnNA %d/%d (TAGE path/generic path)",
			fast.hist, slow.hist, fast.rng, slow.rng, fast.tick, slow.tick, fast.useAltOnNA, slow.useAltOnNA)
	}
	if slow.rng == NewTAGE(DefaultTAGEConfig()).rng {
		t.Fatalf("no allocation drew a random number")
	}
	for i, b := range slow.base {
		if fast.base[i] != b {
			t.Fatalf("base[%d] = %d by the TAGE path, %d by the generic path", i, fast.base[i], b)
		}
	}
	for i := range slow.entries {
		for j, e := range slow.entries[i] {
			if fast.entries[i][j] != e {
				t.Fatalf("table %d entry %d = %+v by the TAGE path, %+v by the generic path", i, j, fast.entries[i][j], e)
			}
		}
	}
}
