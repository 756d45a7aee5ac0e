package ooo_test

import (
	"runtime"
	"testing"

	"acb/internal/bpu"
	"acb/internal/config"
	"acb/internal/core"
	"acb/internal/ooo"
	"acb/internal/workload"
)

// TestSteadyStateAllocationFree asserts the cycle loop's central perf
// invariant: after warmup, the per-cycle machinery allocates nothing.
// Every scratch structure (fetch ring, completion calendar, IQ, LSQ seq
// lists, select queue, correct-path outcomes) must reach steady-state
// capacity during the warmup budget and be reused thereafter.
//
// Method: run each Fig. 6 workload for a warmup budget (all growth
// happens here — ring/slice capacity, per-PC stat entries, TAGE tables),
// then continue the same engine for a second budget and count mallocs
// across it.
//
// Two tiers:
//   - baseline engines exercise the pure cycle loop and must stay under
//     1 alloc per kilocycle (runtime background noise sets the floor);
//   - ACB engines additionally pay per-predication-instance bookkeeping
//     (a ctxState) — event allocations attributable to instructions, not
//     cycles — so they are bounded per opened instance instead. Across
//     the suite the measured window costs 0.97–4.63 mallocs per instance
//     (median 1.05; leela, the maximum, also copies copy-on-write pages
//     as it first writes them); the budget is that maximum plus ~20%.
func TestSteadyStateAllocationFree(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement; skipped in -short")
	}
	const (
		warmup      = 60_000  // retired instructions before measuring
		measured    = 120_000 // total budget; the second half is measured
		maxPerKCyc  = 1.0     // allocs per 1000 simulated cycles (cycle loop)
		maxPerInst  = 5.6     // allocs per predication instance (ACB bookkeeping; measured max 4.63)
		maxAbsolute = 200     // absolute slack for runtime background noise
	)
	for _, w := range workload.All() {
		for _, sch := range []string{"baseline", "acb"} {
			w, sch := w, sch
			t.Run(w.Name+"/"+sch, func(t *testing.T) {
				p, m := w.Build()
				var scheme ooo.Scheme
				if sch == "acb" {
					scheme = core.New(core.DefaultConfig())
				}
				c := ooo.NewWithMemory(config.Skylake(), p,
					bpu.NewTAGE(bpu.DefaultTAGEConfig()), scheme, m)

				warm, err := c.Run(warmup)
				if err != nil {
					t.Fatalf("warmup: %v", err)
				}
				if warm.Retired < warmup {
					t.Skipf("workload halted during warmup (retired=%d)", warm.Retired)
				}

				runtime.GC()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				res, err := c.Run(measured)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatalf("measured run: %v", err)
				}

				mallocs := after.Mallocs - before.Mallocs
				cycles := res.Cycles - warm.Cycles
				if cycles <= 0 {
					t.Fatalf("no cycles simulated in measurement window")
				}
				perKCyc := float64(mallocs) / float64(cycles) * 1000
				instances := res.Predications - warm.Predications
				t.Logf("%d mallocs over %d cycles (%.3f/kcycle), %d predication instances",
					mallocs, cycles, perKCyc, instances)
				// Budget: the cycle-loop allowance plus (for ACB) the
				// per-instance bookkeeping allowance.
				budget := maxPerKCyc * float64(cycles) / 1000
				budget += maxPerInst * float64(instances)
				if float64(mallocs) > budget && mallocs > maxAbsolute {
					t.Errorf("steady state allocates: %d mallocs over %d cycles / %d instances (budget %.0f)",
						mallocs, cycles, instances, budget)
				}
			})
		}
	}
}
