package workload

import (
	"reflect"
	"testing"

	"acb/internal/isa"
	"acb/internal/prog"
)

// TestBuildDeterministic: the same spec always generates the same program
// and memory image.
func TestBuildDeterministic(t *testing.T) {
	spec := Spec{
		Seed: 7, Period: 512, Iters: 1000, ALU: 3, ChaseDepth: 1, ChaseSpan: 1 << 16,
		Hammocks: []Hammock{
			{Shape: ShapeIfElse, TLen: 3, NTLen: 2, TakenBias: 0.5, Noise: 0.5},
		},
	}
	p1, m1 := spec.Build()
	p2, m2 := spec.Build()
	if len(p1) != len(p2) {
		t.Fatal("program length differs")
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("instruction %d differs", i)
		}
	}
	for addr := int64(0); addr < 1<<16; addr += 8 {
		if m1.Load(condTableBase+addr) != m2.Load(condTableBase+addr) {
			t.Fatalf("memory differs at %#x", condTableBase+addr)
		}
	}
}

// TestTrainVariantSameCodeDifferentData: BuildTrain must produce an
// identical program (same PCs for the compiler pass) with different
// condition data for TrainDiffers hammocks.
func TestTrainVariantSameCodeDifferentData(t *testing.T) {
	spec := Spec{
		Seed: 7, Period: 512, Iters: 1000,
		Hammocks: []Hammock{
			{Shape: ShapeIfElse, TLen: 3, NTLen: 2, TakenBias: 0.5,
				Noise: 0.9, TrainDiffers: true, TrainNoise: 0.0},
		},
	}
	p, m := spec.Build()
	tp, tm := spec.BuildTrain()
	if len(p) != len(tp) {
		t.Fatal("training program structure differs")
	}
	for i := range p {
		if p[i] != tp[i] {
			t.Fatalf("instruction %d differs between inputs", i)
		}
	}
	diff := 0
	for i := int64(0); i < 512; i++ {
		if m.Load(condTableBase+i*8)&1 != tm.Load(condTableBase+i*8)&1 {
			diff++
		}
	}
	if diff < 64 {
		t.Fatalf("only %d/512 condition bits differ between inputs", diff)
	}
}

// TestProgramMatchesBuild: Program, which builds no memory image for a
// synthetic workload, returns Build's program for every suite workload
// and for an adversarial entry, which has its own build.
func TestProgramMatchesBuild(t *testing.T) {
	advs, err := Adversarial()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range append(All(), advs[0]) {
		p, _ := w.Build()
		if !reflect.DeepEqual(w.Program(), p) {
			t.Errorf("%s: Program differs from Build's program", w.Name)
		}
	}
}

// TestShapesHaveExpectedCFG: each generated shape produces the static
// hammock structure its name promises.
func TestShapesHaveExpectedCFG(t *testing.T) {
	build := func(h Hammock) []isa.Instruction {
		spec := Spec{Seed: 3, Period: 64, Iters: 10, Hammocks: []Hammock{h}}
		p, _ := spec.Build()
		return p
	}

	findBranch := func(p []isa.Instruction) int {
		for pc, in := range p {
			// The hammock branch is the first forward conditional branch.
			if in.Op == isa.Br && in.Target > pc {
				return pc
			}
		}
		return -1
	}

	t.Run("IfOnly", func(t *testing.T) {
		p := build(Hammock{Shape: ShapeIfOnly, NTLen: 4})
		pc := findBranch(p)
		g := prog.NewCFG(p)
		if r := g.Reconvergence(pc); r != p[pc].Target {
			t.Errorf("Type-1 recon = %d, want target %d", r, p[pc].Target)
		}
	})

	t.Run("IfElse", func(t *testing.T) {
		p := build(Hammock{Shape: ShapeIfElse, TLen: 3, NTLen: 4})
		pc := findBranch(p)
		g := prog.NewCFG(p)
		r := g.Reconvergence(pc)
		if r <= p[pc].Target {
			t.Errorf("Type-2 recon = %d, want beyond target %d", r, p[pc].Target)
		}
	})

	t.Run("Type3", func(t *testing.T) {
		p := build(Hammock{Shape: ShapeType3, TLen: 3, NTLen: 4})
		pc := findBranch(p)
		g := prog.NewCFG(p)
		r := g.Reconvergence(pc)
		if !(r > pc && r < p[pc].Target) {
			t.Errorf("Type-3 recon = %d, want between branch %d and target %d", r, pc, p[pc].Target)
		}
	})

	t.Run("NonConvergent", func(t *testing.T) {
		p := build(Hammock{Shape: ShapeNonConvergent, NTLen: 4})
		pc := findBranch(p)
		// The postdominator exists (the loop tail) but far beyond the
		// learning window on at least one path.
		for _, h := range prog.AnalyzeHammocks(p, 40) {
			if h.BranchPC == pc {
				t.Errorf("non-convergent hammock reconverges within 40: %+v", h)
			}
		}
	})
}

// TestNoiseControlsMispredictability: Noise is the probability the
// outcome deviates from the short repeating pattern, so agreement with
// the pattern must fall from 100% toward ~50% as Noise rises.
func TestNoiseControlsMispredictability(t *testing.T) {
	agreement := func(noise float64) int {
		spec := Spec{Seed: 11, Period: 2048, Iters: 10,
			Hammocks: []Hammock{{Shape: ShapeIfOnly, NTLen: 2, TakenBias: 0.5, Noise: noise}}}
		_, m := spec.Build()
		match := 0
		for i := int64(0); i < 2048; i++ {
			bit := m.Load(condTableBase+i*8) & 1
			if bit == i&1 { // the h=0 pattern is bit 0 of the index
				match++
			}
		}
		return match
	}
	clean, noisy := agreement(0.0), agreement(1.0)
	if clean != 2048 {
		t.Fatalf("noise 0.0 agreement = %d/2048, want exact pattern", clean)
	}
	if noisy > 1500 || noisy < 600 {
		t.Fatalf("noise 1.0 agreement = %d/2048, want near-random", noisy)
	}
}

// TestChaseTableIsPermutationCycle: every chase slot points at another
// in-table slot, forming valid pointers for unbounded chasing.
func TestChaseTableIsPermutationCycle(t *testing.T) {
	spec := Spec{Seed: 5, Iters: 10, ChaseDepth: 1, ChaseSpan: 1 << 12}
	_, m := spec.Build()
	slots := int64(1<<12) / 8
	seen := map[int64]bool{}
	addr := int64(chaseTableBase)
	for i := int64(0); i < slots; i++ {
		next := m.Load(addr)
		if next < chaseTableBase || next >= chaseTableBase+slots*8 {
			t.Fatalf("chase pointer %#x escapes the table", next)
		}
		if seen[addr] {
			break
		}
		seen[addr] = true
		addr = next
	}
	if len(seen) < int(slots)/2 {
		t.Fatalf("chase cycle covers only %d/%d slots", len(seen), slots)
	}
}

// TestFeedsChaseKeepsPointersValid: the body-selected offset still lands
// on a valid chase slot (offset 8 within an 8-byte-slot table wraps to a
// neighbouring slot).
func TestFeedsChaseKeepsPointersValid(t *testing.T) {
	spec := Spec{Seed: 5, Iters: 200, ChaseDepth: 1, ChaseSpan: 1 << 12,
		Hammocks: []Hammock{{Shape: ShapeIfElse, TLen: 2, NTLen: 2, TakenBias: 0.5, SlowCond: true, FeedsChase: true}}}
	p, m := spec.Build()
	st := isa.NewArchState(m)
	for i := 0; i < 20_000; i++ {
		res := st.Step(p)
		if res.Halted {
			break
		}
		if res.Inst.Op == isa.Load && res.EffAddr >= chaseTableBase &&
			res.EffAddr < chaseTableBase+(1<<12) {
			v := res.Value
			if v < chaseTableBase || v >= chaseTableBase+(1<<12) {
				t.Fatalf("chase load at %#x returned out-of-table pointer %#x", res.EffAddr, v)
			}
		}
	}
}

// TestSuiteIsBroad: the registered suite must cover every shape and the
// special behaviour classes the paper's evaluation depends on.
func TestSuiteIsBroad(t *testing.T) {
	var type3, nonconv, tails, slow, chase, train int
	for _, w := range All() {
		for _, h := range w.Spec.Hammocks {
			switch h.Shape {
			case ShapeType3:
				type3++
			case ShapeNonConvergent:
				nonconv++
			}
			if h.CorrelatedTail {
				tails++
			}
			if h.SlowCond {
				slow++
			}
			if h.FeedsChase {
				chase++
			}
			if h.TrainDiffers {
				train++
			}
		}
	}
	if type3 == 0 || nonconv == 0 || tails == 0 || slow == 0 || chase == 0 || train == 0 {
		t.Fatalf("suite misses behaviour classes: type3=%d nonconv=%d tails=%d slow=%d chase=%d train=%d",
			type3, nonconv, tails, slow, chase, train)
	}
}
