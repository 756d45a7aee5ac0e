package bpu

import (
	"testing"
	"testing/quick"
)

// trainLoop runs a predictor over a synthetic outcome sequence for one
// branch PC and returns the accuracy over the final quarter (after
// warmup).
func trainLoop(p Predictor, pc uint64, outcomes []bool) float64 {
	correct, counted := 0, 0
	warm := len(outcomes) * 3 / 4
	for i, taken := range outcomes {
		pr := p.Predict(pc, taken)
		if i >= warm {
			counted++
			if pr.Taken == taken {
				correct++
			}
		}
		p.Update(pc, pr, taken)
		p.PushHistory(pc, taken)
	}
	if counted == 0 {
		return 0
	}
	return float64(correct) / float64(counted)
}

func always(n int, v bool) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func alternating(n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = i%2 == 0
	}
	return out
}

func pattern(n int, period int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = (i/period)%2 == 0
	}
	return out
}

func random(n int, seed uint64) []bool {
	out := make([]bool, n)
	x := seed | 1
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = x&1 == 1
	}
	return out
}

func predictors() map[string]func() Predictor {
	return map[string]func() Predictor{
		"bimodal":    func() Predictor { return NewBimodal(12) },
		"gshare":     func() Predictor { return NewGShare(12, 12) },
		"tage":       func() Predictor { return NewTAGE(DefaultTAGEConfig()) },
		"perceptron": func() Predictor { return NewPerceptron(8, 24) },
	}
}

func TestAlwaysTakenLearned(t *testing.T) {
	for name, mk := range predictors() {
		if acc := trainLoop(mk(), 0x40, always(2000, true)); acc < 0.99 {
			t.Errorf("%s: always-taken accuracy %.3f", name, acc)
		}
	}
}

func TestAlternatingLearnedByHistoryPredictors(t *testing.T) {
	for _, name := range []string{"gshare", "tage", "perceptron"} {
		mk := predictors()[name]
		if acc := trainLoop(mk(), 0x40, alternating(4000)); acc < 0.95 {
			t.Errorf("%s: alternating accuracy %.3f", name, acc)
		}
	}
}

func TestPatternLearnedByTAGE(t *testing.T) {
	if acc := trainLoop(NewTAGE(DefaultTAGEConfig()), 0x80, pattern(8000, 5)); acc < 0.9 {
		t.Errorf("tage: period-5 pattern accuracy %.3f", acc)
	}
}

func TestRandomIsHard(t *testing.T) {
	for name, mk := range predictors() {
		acc := trainLoop(mk(), 0x40, random(8000, 0xABCDEF))
		if acc > 0.65 {
			t.Errorf("%s: %.3f accuracy on random data is implausible", name, acc)
		}
	}
}

func TestTAGEBeatsBimodalOnCorrelated(t *testing.T) {
	// Branch B2 at pcB repeats branch B1's outcome (perfect correlation
	// through global history).
	outcomes := random(6000, 0x1234)
	run := func(p Predictor) float64 {
		correct, counted := 0, 0
		for i, taken := range outcomes {
			pr1 := p.Predict(0x40, taken)
			p.Update(0x40, pr1, taken)
			p.PushHistory(0x40, taken)
			pr2 := p.Predict(0x80, taken)
			if i > 4500 {
				counted++
				if pr2.Taken == taken {
					correct++
				}
			}
			p.Update(0x80, pr2, taken)
			p.PushHistory(0x80, taken)
		}
		return float64(correct) / float64(counted)
	}
	tage := run(NewTAGE(DefaultTAGEConfig()))
	bim := run(NewBimodal(12))
	if tage < 0.9 {
		t.Errorf("tage correlated accuracy %.3f, want >= 0.9", tage)
	}
	if tage <= bim {
		t.Errorf("tage %.3f should beat bimodal %.3f on correlated branch", tage, bim)
	}
}

func TestOracleIsPerfect(t *testing.T) {
	o := NewOracle()
	for i, taken := range random(100, 7) {
		pr := o.Predict(uint64(i), taken)
		if pr.Taken != taken {
			t.Fatal("oracle mispredicted")
		}
		o.Update(uint64(i), pr, taken)
		o.PushHistory(uint64(i), taken)
	}
}

func TestHistorySnapshotRestore(t *testing.T) {
	for name, mk := range predictors() {
		p := mk()
		p.PushHistory(0, true)
		p.PushHistory(0, false)
		h := p.History()
		p.PushHistory(0, true) // shifts in a 1 bit (pc 0 has no path hash)
		if p.History() == h {
			t.Errorf("%s: push did not change history", name)
		}
		p.SetHistory(h)
		if p.History() != h {
			t.Errorf("%s: restore failed", name)
		}
	}
}

// TestHistoryPushDeterministic: history evolution is a pure function of
// (history, pc, outcome).
func TestHistoryPushDeterministic(t *testing.T) {
	f := func(h, pc uint64, taken bool) bool {
		return historyPush(h, pc, taken) == historyPush(h, pc, taken)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJRSConfidence(t *testing.T) {
	j := NewJRSConfidence(10, 8, 8)
	pc, hist := uint64(0x40), uint64(0)
	if j.Confident(pc, hist) {
		t.Fatal("fresh estimator must not be confident")
	}
	for i := 0; i < 8; i++ {
		j.Update(pc, hist, true)
	}
	if !j.Confident(pc, hist) {
		t.Fatal("8 straight corrects should reach confidence")
	}
	j.Update(pc, hist, false)
	if j.Confident(pc, hist) {
		t.Fatal("a misprediction must reset confidence")
	}
}

func TestJRSSaturation(t *testing.T) {
	j := NewJRSConfidence(10, 8, 8)
	for i := 0; i < 100; i++ {
		j.Update(1, 2, true)
	}
	if !j.Confident(1, 2) {
		t.Fatal("saturated counter must be confident")
	}
}

func TestPredictorNames(t *testing.T) {
	want := map[string]Predictor{
		"bimodal":    NewBimodal(4),
		"gshare":     NewGShare(4, 4),
		"tage":       NewTAGE(DefaultTAGEConfig()),
		"perceptron": NewPerceptron(4, 8),
		"oracle":     NewOracle(),
	}
	for name, p := range want {
		if p.Name() != name {
			t.Errorf("Name() = %q, want %q", p.Name(), name)
		}
	}
}

// TestNewByName: every listed name builds a fresh predictor of that name,
// and an unknown name is an error.
func TestNewByName(t *testing.T) {
	for _, name := range Names() {
		p, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, p.Name())
		}
		if q, _ := New(name); q == p {
			t.Errorf("New(%q) returned the same predictor twice", name)
		}
	}
	if _, err := New("tage2"); err == nil {
		t.Error("New accepted an unknown predictor")
	}
}

func TestTAGEInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTAGE(TAGEConfig{BaseBits: 4, TableBits: 4, HistLens: nil})
}
