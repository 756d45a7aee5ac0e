package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"testing"

	"acb/internal/bpu"
	"acb/internal/config"
	"acb/internal/experiments"
	"acb/internal/ooo"
	"acb/internal/sample"
	"acb/internal/workload"
)

var update = flag.Bool("update", false, "recompute testdata/golden.json (seed 0, default sizes; about a minute)")

// TestGolden checks that the golden covers every fig6 pair and every
// sampled-long workload; with -update it recomputes the golden first.
func TestGolden(t *testing.T) {
	if *update {
		writeGolden(t)
	}
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workload.All() {
		for _, scheme := range []string{"baseline", "acb"} {
			if _, ok := g.Fig6[w.Name+"/"+scheme]; !ok {
				t.Errorf("golden lacks %s/%s; rerun with -update", w.Name, scheme)
			}
		}
	}
	for _, n := range sampledNames {
		if g.FullCPI[n] <= 0 {
			t.Errorf("golden lacks the full-detail CPI of %s; rerun with -update", n)
		}
	}
}

func writeGolden(t *testing.T) {
	cfg := defaultSettings(0, 0)
	g := golden{Fig6: map[string]goldenSim{}, FullCPI: map[string]float64{}}
	inputs := buildInputs(workload.All(), 0)
	for i := range inputs {
		for _, scheme := range []string{"baseline", "acb"} {
			run, err := simulate(&inputs[i], scheme, cfg.fig6Budget, false)
			if err == nil {
				err = checkRegs(&inputs[i], &run.res)
			}
			if err != nil {
				t.Fatal(err)
			}
			g.Fig6[inputs[i].name+"/"+scheme] = goldenOf(&run.res)
		}
	}

	ws, err := workloadsNamed(sampledNames)
	if err != nil {
		t.Fatal(err)
	}
	sampled := buildInputs(ws, 0)
	cpis := make([]float64, len(sampled))
	errs := make([]error, len(sampled))
	err = experiments.Pool(experiments.Options{Jobs: windowJobs}, len(sampled), func(i int) {
		in := &sampled[i]
		res, err := ooo.NewWithMemory(config.Skylake(), in.prog, bpu.NewTAGE(bpu.DefaultTAGEConfig()), nil,
			in.mem.Clone()).Run(cfg.sampledBudget)
		cpis[i], errs[i] = float64(res.Cycles)/float64(res.Retired), err
	})
	if err != nil {
		t.Fatal(err)
	}
	var mean float64
	for i, in := range sampled {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		g.FullCPI[in.name] = cpis[i]
		est, err := sample.Run(in.prog, in.mem, sample.PlanForBudget(cfg.sampledBudget), sample.Options{Budget: cfg.sampledBudget, Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		e := math.Abs(est.CPIErrorPct(cpis[i]))
		t.Logf("%-8s full CPI %.4f sampled %.4f (%.2f%%)", in.name, cpis[i], est.CPI, e)
		if e > experiments.SampledWorstErrorPct {
			t.Errorf("%s: sampled CPI error %.2f%% exceeds %.0f%%", in.name, e, experiments.SampledWorstErrorPct)
		}
		mean += e / float64(len(sampled))
	}
	if mean > experiments.SampledMeanErrorPct {
		t.Errorf("mean sampled CPI error %.2f%% exceeds %.0f%%", mean, experiments.SampledMeanErrorPct)
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/golden.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	goldenJSON = b
}

// TestGoldenCatchesPerturbation perturbs one golden cycle count and
// checks that the simulation it pins now fails its fig6 check.
func TestGoldenCatchesPerturbation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full-budget simulation")
	}
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	ws, err := workloadsNamed([]string{"lammps"})
	if err != nil {
		t.Fatal(err)
	}
	in := &buildInputs(ws, 0)[0]
	run, err := simulate(in, "acb", defaultSettings(0, 0).fig6Budget, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFig6(in, "acb", &run.res, g); err != nil {
		t.Fatalf("unperturbed golden: %v", err)
	}
	sim := g.Fig6["lammps/acb"]
	sim.Cycles++
	g.Fig6["lammps/acb"] = sim
	if err := checkFig6(in, "acb", &run.res, g); err == nil {
		t.Fatal("a perturbed golden cycle count passed the check")
	}
}
