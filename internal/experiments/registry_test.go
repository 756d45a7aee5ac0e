package experiments

import (
	"context"
	"errors"
	"strconv"
	"testing"
	"time"

	"acb/internal/bpu"
	"acb/internal/core"
	"acb/internal/ooo"
)

func TestRegistryLookup(t *testing.T) {
	for _, name := range []string{"table1", "fig6", "census", "sens-n"} {
		if _, ok := Lookup(name); !ok {
			t.Errorf("Lookup(%q) missed", name)
		}
	}
	if _, ok := Lookup("fig99"); ok {
		t.Error("Lookup accepted an unknown experiment")
	}
	if len(Experiments()) != len(Names()) {
		t.Error("Experiments and Names disagree on registry size")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("fig99", DefaultOptions()); err == nil {
		t.Fatal("Run accepted an unknown experiment")
	}
}

// TestRunMatchesDirectCall: Run must return exactly the table the
// experiment function produces.
func TestRunMatchesDirectCall(t *testing.T) {
	tab, err := Run("table1", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tab.String(), TableI().String(); got != want {
		t.Fatalf("Run(table1) diverged from TableI():\n%s\nvs\n%s", got, want)
	}
}

// TestRunCancelledContext: a cancelled context surfaces as an
// errors.Is-able error, never as a panic or a partially-filled table, and
// stops in-flight simulations mid-run — the sensitivity and multirecon
// sweeps' included.
func TestRunCancelledContext(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	for _, name := range []string{"fig6", "sens-n", "multirecon"} {
		t.Run(name, func(t *testing.T) {
			opts := smallOpts(t, "lammps", "compression")
			opts.Budget = 100_000_000 // would run for minutes uncancelled
			ctx, cancel := context.WithCancel(context.Background())
			opts.Context = ctx
			go func() {
				time.Sleep(30 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			tab, err := Run(name, opts)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if tab != nil {
				t.Fatal("cancelled Run returned a table")
			}
			if elapsed := time.Since(start); elapsed > 30*time.Second {
				t.Fatalf("cancellation took %s; simulations did not stop mid-run", elapsed)
			}
		})
	}
}

// TestRunCountsCyclesAndCPI: every experiment's simulations report their
// cycles and CPI stacks — the sensitivity and multirecon sweeps' too —
// and sens-n runs each baseline once for all six window sizes. A shared
// dormant prefix is simulated once but covered by both runs' stacks.
func TestRunCountsCyclesAndCPI(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	for _, tc := range []struct {
		name string
		sims int64
	}{
		{"sens-n", 6 + 6*6},
		{"multirecon", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Budget = 20_000
			opts.Stats = &RunnerStats{}
			opts.CPIStats = NewCPIAccumulator()
			if _, err := Run(tc.name, opts); err != nil {
				t.Fatal(err)
			}
			if got := opts.Stats.Simulations(); got != tc.sims {
				t.Errorf("%d simulations, want %d", got, tc.sims)
			}
			if opts.Stats.Cycles() <= 0 {
				t.Error("no simulated cycles counted")
			}
			var cpiCycles int64
			for _, tot := range opts.CPIStats.Snapshot() {
				cpiCycles += tot.Cycles
			}
			if shared := opts.Stats.prefixCycles.Load(); cpiCycles != opts.Stats.Cycles()+shared {
				t.Errorf("CPI stacks cover %d cycles, the runs simulated %d and shared %d",
					cpiCycles, opts.Stats.Cycles(), shared)
			}
		})
	}
}

// TestMultiReconPromotionsFromItsRun: the recon-promotions column is the
// promotion count of the multiple-reconvergence run itself.
func TestMultiReconPromotionsFromItsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulations")
	}
	opts := DefaultOptions()
	opts.Budget = 100_000
	tab := MultiRecon(opts)

	spec := b1Workload()
	p, m := spec.Build()
	cfg := core.DefaultConfig()
	cfg.MultiRecon = true
	acb := core.New(cfg)
	if _, err := ooo.NewWithMemory(opts.Config, p, bpu.NewTAGE(bpu.DefaultTAGEConfig()), acb, m).Run(opts.Budget); err != nil {
		t.Fatal(err)
	}
	if acb.ReconPromotions == 0 {
		t.Fatal("the direct run promoted no reconvergence point; the check would be vacuous")
	}
	row := tab.Rows[len(tab.Rows)-1]
	if want := strconv.FormatInt(acb.ReconPromotions, 10); row[0] != "acb-mr" || row[4] != want {
		t.Fatalf("acb-mr row %v, want recon-promotions %s", row, want)
	}
}

// BenchmarkExperiment runs each registered experiment once per iteration at
// the default budget, on a fresh memo so every iteration simulates, and
// reports allocations, simulated cycles per wall second and simulations
// per run. It is the profiling entry point, e.g.
//
//	go test ./internal/experiments/ -run '^$' -bench 'Experiment/fig6$' \
//	    -benchtime 1x -cpuprofile cpu.out
func BenchmarkExperiment(b *testing.B) {
	for _, e := range Experiments() {
		b.Run(e.Name, func(b *testing.B) {
			rs := &RunnerStats{}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opts := DefaultOptions()
				opts.Stats = rs
				e.Func(opts)
			}
			if sims := rs.Simulations(); sims > 0 {
				b.ReportMetric(float64(rs.Cycles())/b.Elapsed().Seconds(), "cycles/sec")
				b.ReportMetric(float64(sims)/float64(b.N), "sims/op")
			}
		})
	}
}
