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

// TestCPIStackKeepsQuiescentSkipping checks that Run, which skips
// quiescent cycles whatever observers are attached, reports the same
// Result, CPI stack, PipeStats and trace events as a StepCycle loop,
// which steps every cycle, with all three observers on (ACB shares the
// core's trace ring). The workloads are memory-bound (mcf, soplex), ACB's
// largest winner (lammps) and gcc, under the baseline core and ACB.
func TestCPIStackKeepsQuiescentSkipping(t *testing.T) {
	const budget = 150_000
	type observed struct {
		res     ooo.Result
		pipe    ooo.PipeStats
		events  []ooo.TraceEvent
		dropped int64
	}
	for _, name := range []string{"mcf", "soplex", "lammps", "gcc"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, sch := range []string{"baseline", "acb"} {
			t.Run(name+"/"+sch, func(t *testing.T) {
				run := func(stepped bool) observed {
					p, m := w.Build()
					var scheme ooo.Scheme
					acb := core.New(core.DefaultConfig())
					if sch == "acb" {
						scheme = acb
					}
					c := ooo.NewWithMemory(config.Skylake(), p, bpu.NewTAGE(bpu.DefaultTAGEConfig()), scheme, m)
					c.EnableCPIStack()
					c.EnablePipeStats()
					tr := c.EnableTrace(1 << 16)
					acb.SetTrace(tr)
					var res ooo.Result
					if stepped {
						for {
							halted, retired := c.StepCycle()
							if halted || retired >= budget {
								res = c.Result(halted)
								break
							}
						}
					} else if res, err = c.Run(budget); err != nil {
						t.Fatal(err)
					}
					return observed{res, *c.PipeStats(), tr.Events(), tr.Dropped()}
				}
				skipped, stepped := run(false), run(true)
				if !reflect.DeepEqual(*skipped.res.CPI, *stepped.res.CPI) {
					t.Errorf("CPI stack with skipping:\n%s\nstepping every cycle:\n%s", skipped.res.CPI, stepped.res.CPI)
				}
				skipped.res.CPI, stepped.res.CPI = nil, nil
				if !reflect.DeepEqual(skipped.res, stepped.res) {
					t.Errorf("result with skipping %+v\nstepping every cycle %+v", skipped.res, stepped.res)
				}
				if skipped.pipe != stepped.pipe {
					t.Errorf("PipeStats with skipping:\n%s\nstepping every cycle:\n%s", &skipped.pipe, &stepped.pipe)
				}
				if len(stepped.events) == 0 && sch == "acb" {
					t.Error("ACB run traced no events")
				}
				if skipped.dropped != stepped.dropped || !reflect.DeepEqual(skipped.events, stepped.events) {
					t.Errorf("trace with skipping: %d events (%d dropped), stepping every cycle: %d (%d dropped)",
						len(skipped.events), skipped.dropped, len(stepped.events), stepped.dropped)
				}
			})
		}
	}
}
