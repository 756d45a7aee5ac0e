package ooo_test

import (
	"reflect"
	"strings"
	"testing"

	"acb/internal/bpu"
	"acb/internal/config"
	"acb/internal/core"
	"acb/internal/ooo"
	"acb/internal/workload"
)

// newBaseline builds a baseline core on w that attributes a CPI stack.
func newBaseline(t *testing.T, w workload.Workload) *ooo.Core {
	t.Helper()
	p, m := w.Build()
	c := ooo.NewWithMemory(config.Skylake(), p, bpu.NewTAGE(bpu.DefaultTAGEConfig()), nil, m)
	c.EnableCPIStack()
	return c
}

// TestForkContinuesExactly: a core stopped where RunContext returns and
// forked there continues, in the fork and in the original, exactly as an
// uninterrupted run does, CPI stack and PerBranch included. Each stop
// runs one side first, so either side running leaves the other as it
// was. A core with a predication context live cannot fork.
func TestForkContinuesExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("simulations")
	}
	const budget = 40_000
	for _, name := range []string{"gcc", "mcf", "h264ref"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := newBaseline(t, w).Run(budget)
		if err != nil {
			t.Fatal(err)
		}
		for i, stop := range []int64{1, 4_321, 16_380, 33_333} {
			c := newBaseline(t, w)
			if _, err := c.Run(stop); err != nil {
				t.Fatal(err)
			}
			f := c.Fork(nil)
			first, second := f, c
			if i%2 == 1 {
				first, second = c, f
			}
			for _, side := range []*ooo.Core{first, second} {
				got, err := side.Run(budget)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s stopped at %d: a continuation differs from the uninterrupted run:\ngot  %+v\nwant %+v",
						name, stop, got, want)
				}
			}
		}
	}
	forkWithContextPanics(t)
}

// forkWithContextPanics steps an ACB core without Dynamo on gcc until a
// predication context is live and checks that Fork panics there.
func forkWithContextPanics(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	p, m := w.Build()
	cfg := core.DefaultConfig()
	cfg.UseDynamo = false
	c := ooo.NewWithMemory(config.Skylake(), p, bpu.NewTAGE(bpu.DefaultTAGEConfig()), core.New(cfg), m)
	for cycle := 0; c.LiveContexts() == 0; cycle++ {
		if halted, _ := c.StepCycle(); halted || cycle == 2_000_000 {
			t.Fatal("no predication context opened")
		}
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "predication context") {
			t.Fatalf("Fork with a context live panicked with %q", msg)
		}
	}()
	c.Fork(nil)
}
