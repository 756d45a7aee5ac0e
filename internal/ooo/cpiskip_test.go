package ooo_test

import (
	"reflect"
	"testing"

	"acb/internal/bpu"
	"acb/internal/config"
	"acb/internal/core"
	"acb/internal/ooo"
	"acb/internal/workload"
)

// TestCPIStackKeepsQuiescentSkipping checks that a run with only the CPI
// stack on, which skips quiescent cycles, reports the same Result and
// CPI stack as one that also collects PipeStats and so steps every cycle.
// The workloads are memory-bound (mcf, soplex) and ACB's largest winner
// (lammps), under the baseline core and ACB.
func TestCPIStackKeepsQuiescentSkipping(t *testing.T) {
	const budget = 150_000
	for _, name := range []string{"mcf", "soplex", "lammps"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, sch := range []string{"baseline", "acb"} {
			t.Run(name+"/"+sch, func(t *testing.T) {
				run := func(perCycle bool) ooo.Result {
					p, m := w.Build()
					var scheme ooo.Scheme
					if sch == "acb" {
						scheme = core.New(core.DefaultConfig())
					}
					c := ooo.NewWithMemory(config.Skylake(), p, bpu.NewTAGE(bpu.DefaultTAGEConfig()), scheme, m)
					c.EnableCPIStack()
					if perCycle {
						c.EnablePipeStats()
					}
					res, err := c.Run(budget)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				skipped, stepped := run(false), run(true)
				if !reflect.DeepEqual(*skipped.CPI, *stepped.CPI) {
					t.Errorf("CPI stack with skipping:\n%s\nstepping every cycle:\n%s", skipped.CPI, stepped.CPI)
				}
				skipped.CPI, stepped.CPI = nil, nil
				if !reflect.DeepEqual(skipped, stepped) {
					t.Errorf("result with skipping %+v\nstepping every cycle %+v", skipped, stepped)
				}
			})
		}
	}
}
