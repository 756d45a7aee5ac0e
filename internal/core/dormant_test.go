package core_test

import (
	"reflect"
	"testing"

	"acb/internal/bpu"
	"acb/internal/config"
	"acb/internal/core"
	"acb/internal/ooo"
	"acb/internal/workload"
)

// firstPredication wraps ACB and records the retired count at the first
// instance ShouldPredicate dual-fetches (-1 until one is).
type firstPredication struct {
	*core.ACB
	retired, first int64
}

func (f *firstPredication) ShouldPredicate(pc int, predTaken bool, conf int, hist uint64) (ooo.PredSpec, bool) {
	spec, ok := f.ACB.ShouldPredicate(pc, predTaken, conf, hist)
	if ok && f.first < 0 {
		f.first = f.retired
	}
	return spec, ok
}

func (f *firstPredication) OnRetireTick(cycle int64) {
	f.retired++
	f.ACB.OnRetireTick(cycle)
}

// TestACBDormantFirstEpoch: on every suite workload, ACB predicates
// nothing before Dormant() instructions retire, and an ACB core stopped
// at Dormant() − RetireWidth equals a baseline core stopped there but for
// the scheme name, CPI stack and PerBranch included: the grid's shared
// prefix rests on both. ACB without Dynamo is never dormant.
func TestACBDormantFirstEpoch(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	cfg := config.Skylake()
	noDynamo := core.DefaultConfig()
	noDynamo.UseDynamo = false
	if d := core.New(noDynamo).Dormant(); d != 0 {
		t.Fatalf("acb-nodynamo: Dormant() = %d, want 0", d)
	}
	dormant := core.New(core.DefaultConfig()).Dormant()
	if dormant != core.DefaultDynamoConfig().EpochLen {
		t.Fatalf("acb: Dormant() = %d, want Dynamo's epoch, %d", dormant, core.DefaultDynamoConfig().EpochLen)
	}
	stop := dormant - int64(cfg.RetireWidth)
	predicating := 0
	for _, w := range workload.All() {
		newCore := func(s ooo.Scheme) *ooo.Core {
			p, m := w.Build()
			c := ooo.NewWithMemory(cfg, p, bpu.NewTAGE(bpu.DefaultTAGEConfig()), s, m)
			c.EnableCPIStack()
			return c
		}
		acb := &firstPredication{ACB: core.New(core.DefaultConfig()), first: -1}
		ac := newCore(acb)
		got, err := ac.Run(stop)
		if err != nil {
			t.Fatal(err)
		}
		want, err := newCore(nil).Run(stop)
		if err != nil {
			t.Fatal(err)
		}
		if got.Retired >= dormant {
			t.Fatalf("%s: the prefix retired %d, past the dormant %d", w.Name, got.Retired, dormant)
		}
		got.Scheme = want.Scheme
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ACB stopped at %d differs from the baseline:\nacb      %+v\nbaseline %+v", w.Name, stop, got, want)
		}
		if _, err := ac.Run(2 * dormant); err != nil {
			t.Fatal(err)
		}
		if acb.first >= 0 {
			predicating++
			if acb.first < dormant {
				t.Errorf("%s: ACB predicated with %d retired, before Dormant() = %d", w.Name, acb.first, dormant)
			}
		}
	}
	// The bound means something only if ACB predicates soon after it.
	if predicating == 0 {
		t.Fatalf("no workload predicated within %d retired instructions", 2*dormant)
	}
	t.Logf("%d workloads predicated by %d retired instructions, none before %d", predicating, 2*dormant, dormant)
}
