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

// runIQChecked steps c one cycle at a time until it halts or retires
// budget instructions, checking the issue-queue wakeup invariants after
// every cycle. It returns the largest number of body entries parked at
// once.
func runIQChecked(t *testing.T, c *ooo.Core, budget int64) (maxParkedBody int) {
	t.Helper()
	for cycle := 0; cycle < 50*int(budget)+10_000; cycle++ {
		halted, retired := c.StepCycle()
		st, err := c.CheckIQ()
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle+1, err)
		}
		if st.ParkedBody > maxParkedBody {
			maxParkedBody = st.ParkedBody
		}
		if halted || retired >= budget {
			return maxParkedBody
		}
	}
	t.Fatalf("no forward progress within the cycle bound")
	return 0
}

// TestIQWakeupInvariants checks the parked-entry bookkeeping of the
// event-driven issue queue cycle by cycle, on Fig. 6 workloads under the
// baseline and ACB, and on fuzzer programs under every difftest engine
// (forced stall and eager predication, divergence, and the real ACB with
// its gates). ACB runs must actually park resolved body instructions, so
// that path is covered, not just vacuously consistent.
func TestIQWakeupInvariants(t *testing.T) {
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
				parkedBody := runIQChecked(t, c, budget)
				if sch == "acb" && parkedBody == 0 {
					t.Errorf("no body instruction was ever parked")
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
				runIQChecked(t, c, asm.StepBound+64)
			})
		}
	}
}
