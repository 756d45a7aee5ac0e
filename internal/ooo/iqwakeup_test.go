package ooo_test

import (
	"fmt"
	"testing"

	"acb/internal/bpu"
	"acb/internal/config"
	"acb/internal/core"
	"acb/internal/difftest"
	"acb/internal/ooo"
	"acb/internal/workload"
)

// iqRun is what runIQChecked observed over one run.
type iqRun struct {
	maxParkedBody int // most body instructions parked at once
	maxGated      int // most bodies gated at once
	// Gated bodies squashed in a cycle that made a mispredict or a
	// divergence flush (before their gate opened, or after it opened in
	// the same cycle).
	squashedMispredict, squashedDivergence int
}

// runIQChecked steps c one cycle at a time until it halts or retires
// budget instructions, checking the issue-queue wakeup invariants after
// every cycle.
func runIQChecked(t *testing.T, c *ooo.Core, budget int64) iqRun {
	t.Helper()
	var run iqRun
	var gated, next []ooo.GateRef
	for cycle := 0; cycle < 50*int(budget)+10_000; cycle++ {
		mis0, div0 := c.FlushCounts()
		halted, retired := c.StepCycle()
		next = next[:0]
		st, err := c.CheckIQ(&next)
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle+1, err)
		}
		mis1, div1 := c.FlushCounts()
		for _, g := range gated {
			if !c.Live(g) {
				if mis1 > mis0 {
					run.squashedMispredict++
				}
				if div1 > div0 {
					run.squashedDivergence++
				}
			}
		}
		gated, next = next, gated
		run.maxParkedBody = max(run.maxParkedBody, st.ParkedBody)
		run.maxGated = max(run.maxGated, st.Gated)
		if halted || retired >= budget {
			return run
		}
	}
	t.Fatalf("no forward progress within the cycle bound")
	return run
}

// TestIQWakeupInvariants checks the parked- and gated-entry bookkeeping
// of the event-driven issue queue cycle by cycle, on Fig. 6 workloads
// under the baseline and ACB, and on fuzzer programs under every difftest
// engine (forced stall and eager predication, divergence, and the real
// ACB with its gates). ACB runs must actually park resolved body
// instructions and gate unresolved ones, and the runs together must
// squash gated bodies in both mispredict and divergence flushes, so those
// paths are covered, not just vacuously consistent.
func TestIQWakeupInvariants(t *testing.T) {
	var squashedMis, squashedDiv int
	note := func(r iqRun) {
		squashedMis += r.squashedMispredict
		squashedDiv += r.squashedDivergence
	}
	// ACB needs tens of thousands of instructions to learn its first
	// branches; the parked-body check below depends on it.
	const budget = 30_000
	for _, name := range []string{"lammps", "libquantum", "bzip2", "perlbench"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, sch := range []string{"baseline", "acb"} {
			t.Run(name+"/"+sch, func(t *testing.T) {
				p, m := w.Build()
				var scheme ooo.Scheme
				if sch == "acb" {
					scheme = core.New(core.DefaultConfig())
				}
				c := ooo.NewWithMemory(config.Skylake(), p,
					bpu.NewTAGE(bpu.DefaultTAGEConfig()), scheme, m)
				r := runIQChecked(t, c, budget)
				note(r)
				if sch == "acb" && r.maxParkedBody == 0 {
					t.Errorf("no body instruction was ever parked")
				}
				if sch == "acb" && r.maxGated == 0 {
					t.Errorf("no body instruction was ever gated")
				}
			})
		}
	}
	for _, seed := range []uint64{1, 7, 23} {
		asm, err := difftest.Assemble(difftest.Generate(seed, difftest.DefaultGenConfig()))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, e := range difftest.DefaultMatrix() {
			t.Run(fmt.Sprintf("seed%d/%s", seed, e.Name), func(t *testing.T) {
				c := ooo.NewWithMemory(config.Skylake(), asm.Insts,
					bpu.NewTAGE(bpu.DefaultTAGEConfig()), e.NewScheme(asm), asm.Mem.Clone())
				note(runIQChecked(t, c, asm.StepBound+64))
			})
		}
	}
	if squashedMis == 0 || squashedDiv == 0 {
		t.Errorf("gated bodies squashed by mispredict flushes: %d, by divergence flushes: %d; want both covered",
			squashedMis, squashedDiv)
	}
}
