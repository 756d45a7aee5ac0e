package difftest

import (
	"testing"

	"acb/internal/bpu"
	"acb/internal/config"
	"acb/internal/isa"
	"acb/internal/ooo"
	"acb/internal/sample"
)

// fuzzPlan shrinks the sampling intervals to fuzz-program scale (a few
// thousand steps) so generated programs yield several windows.
func fuzzPlan() sample.Plan {
	return sample.Plan{Interval: 2_000, Warmup: 200, Measure: 600}
}

// TestSampledAgainstGeneratedPrograms is the tentpole's differential
// obligation: for a spread of generated programs, sampled simulation must
// agree with the functional reference at every window boundary, on every
// engine of the sampled matrix.
func TestSampledAgainstGeneratedPrograms(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		p := Generate(seed, DefaultGenConfig())
		rep := CheckSampled(p, fuzzPlan(), Options{})
		if !rep.OK() {
			for _, f := range rep.Failures {
				t.Errorf("seed %d: %s", seed, f)
			}
		}
		for name, e := range rep.Engines {
			if e.Windows > 0 && e.SampledCPI <= 0 {
				t.Errorf("seed %d [%s]: %d windows but sampled CPI %v", seed, name, e.Windows, e.SampledCPI)
			}
		}
	}
}

// TestSampledSeedCorpus replays the curated corpus through the sampled
// checker — the same programs that pin each convergence type in the full
// differential campaign.
func TestSampledSeedCorpus(t *testing.T) {
	for _, e := range SeedCorpus() {
		rep := CheckSampled(e.Prog, fuzzPlan(), Options{})
		if !rep.OK() {
			for _, f := range rep.Failures {
				t.Errorf("%s: %s", e.Name, f)
			}
		}
	}
}

// TestCheckpointDeterminism is the determinism contract for checkpointed
// starts: for every engine of the full matrix and several seeds, (a)
// resuming twice from the same mid-run checkpoint is byte-identical in
// timing and architectural outcome, and (b) the resumed run's final
// architectural state equals the uninterrupted detailed run's. Timing
// (cycles) of a resumed run legitimately differs from the uninterrupted
// run — microarchitectural state starts cold — so only architectural
// state is compared across that pair.
func TestCheckpointDeterminism(t *testing.T) {
	seeds := []uint64{3, 17, 2026}
	for _, seed := range seeds {
		p := Generate(seed, DefaultGenConfig())
		asm, err := Assemble(p)
		if err != nil {
			t.Fatalf("seed %d: assemble: %v", seed, err)
		}
		ref := isa.NewArchState(asm.Mem.Clone())
		steps, halted := ref.Run(asm.Insts, asm.StepBound+16)
		if !halted {
			t.Fatalf("seed %d: functional run did not halt", seed)
		}
		mid := steps / 2
		st := isa.NewArchState(asm.Mem.Clone())
		st.Run(asm.Insts, mid)
		ck := st.Checkpoint(mid)

		for _, e := range DefaultMatrix() {
			run := func(from *isa.Checkpoint) (ooo.Result, *isa.Memory, error) {
				var c *ooo.Core
				if from != nil {
					c = ooo.NewFromCheckpoint(cfgFor(), asm.Insts, bpu.NewTAGE(bpu.DefaultTAGEConfig()), e.NewScheme(asm), from, nil)
				} else {
					c = ooo.NewWithMemory(cfgFor(), asm.Insts, bpu.NewTAGE(bpu.DefaultTAGEConfig()), e.NewScheme(asm), asm.Mem.Clone())
				}
				res, err := c.Run(steps + 64)
				return res, c.CommitMemory(), err
			}

			full, fullMem, err := run(nil)
			if err != nil || !full.Halted {
				t.Errorf("seed %d [%s]: full run halted=%v err=%v", seed, e.Name, full.Halted, err)
				continue
			}
			a, aMem, errA := run(ck)
			b, bMem, errB := run(ck)
			if errA != nil || errB != nil || !a.Halted || !b.Halted {
				t.Errorf("seed %d [%s]: resumed runs: errA=%v errB=%v haltedA=%v haltedB=%v",
					seed, e.Name, errA, errB, a.Halted, b.Halted)
				continue
			}

			// (a) Two resumes must agree on everything, timing included.
			if a.Cycles != b.Cycles || a.Retired != b.Retired || a.Flushes != b.Flushes ||
				a.Mispredicts != b.Mispredicts || a.Predications != b.Predications ||
				a.DivFlushes != b.DivFlushes || a.FinalRegs != b.FinalRegs {
				t.Errorf("seed %d [%s]: twin resumes diverge: %+v vs %+v", seed, e.Name, a, b)
				continue
			}
			if diffs := aMem.DiffWords(bMem, 1); len(diffs) > 0 {
				t.Errorf("seed %d [%s]: twin resume memories diverge: %+v", seed, e.Name, diffs)
			}

			// (b) Resume must land on the full run's architectural end.
			if ck.Retired+a.Retired != full.Retired {
				t.Errorf("seed %d [%s]: resume retired %d+%d != full %d", seed, e.Name, ck.Retired, a.Retired, full.Retired)
			}
			if a.FinalRegs != full.FinalRegs {
				t.Errorf("seed %d [%s]: resumed final regs != full run", seed, e.Name)
			}
			if diffs := aMem.DiffWords(fullMem, 3); len(diffs) > 0 {
				t.Errorf("seed %d [%s]: resumed final memory != full run: %+v", seed, e.Name, diffs)
			}
		}
	}
}

func cfgFor() config.Core { return config.Skylake() }
