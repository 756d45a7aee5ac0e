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

// TestCPIStackChangesNoResult: CPI attribution only observes. Every suite
// workload, on the baseline and on ACB, ends with the same ooo.Result
// with and without it, but for the CPI field itself. internal/experiments
// relies on it: every memoized simulation attributes a stack, so a run
// with attribution answers every experiment's request for that run.
func TestCPIStackChangesNoResult(t *testing.T) {
	const budget = 30_000
	run := func(w workload.Workload, scheme string, cpi bool) ooo.Result {
		p, m := w.Build()
		var s ooo.Scheme
		if scheme == "acb" {
			s = core.New(core.DefaultConfig())
		}
		c := ooo.NewWithMemory(config.Skylake(), p, bpu.NewTAGE(bpu.DefaultTAGEConfig()), s, m)
		if cpi {
			c.EnableCPIStack()
		}
		res, err := c.Run(budget)
		if err != nil {
			t.Fatalf("%s/%s: %v", w.Name, scheme, err)
		}
		return res
	}
	for _, w := range workload.All() {
		for _, scheme := range []string{"baseline", "acb"} {
			bare, attributed := run(w, scheme, false), run(w, scheme, true)
			if attributed.CPI == nil || attributed.CPI.Sum() != attributed.Cycles {
				t.Fatalf("%s/%s: no CPI stack summing to the run's cycles", w.Name, scheme)
			}
			attributed.CPI = nil
			if !reflect.DeepEqual(bare, attributed) {
				t.Errorf("%s/%s: CPI attribution changed the result:\nbare       %+v\nattributed %+v",
					w.Name, scheme, bare, attributed)
			}
		}
	}
}
