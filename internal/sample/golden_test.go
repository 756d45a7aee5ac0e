package sample

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"acb/internal/core"
	"acb/internal/isa"
	"acb/internal/ooo"
)

var updateGolden = flag.Bool("update", false, "rewrite the sampled-estimate golden")

// goldenWindow pins one window's placement and measured statistics.
type goldenWindow struct {
	Start       int64 `json:"start"`
	Warmup      int64 `json:"warmup"`
	Measure     int64 `json:"measure"`
	Cycles      int64 `json:"cycles"`
	Retired     int64 `json:"retired"`
	Flushes     int64 `json:"flushes"`
	Mispredicts int64 `json:"mispredicts"`
}

// goldenEstimate pins one sampled run.
type goldenEstimate struct {
	Name        string         `json:"name"`
	TotalInstrs int64          `json:"total_instrs"`
	Halted      bool           `json:"halted"`
	Windows     []goldenWindow `json:"windows"`
}

func goldenFromEstimate(name string, est *Estimate) goldenEstimate {
	g := goldenEstimate{Name: name, TotalInstrs: est.TotalInstrs, Halted: est.Halted}
	for _, w := range est.Windows {
		g.Windows = append(g.Windows, goldenWindow{
			Start:       w.Start,
			Warmup:      w.Warmup,
			Measure:     w.Measure,
			Cycles:      w.Result.Cycles,
			Retired:     w.Result.Retired,
			Flushes:     w.Result.Flushes,
			Mispredicts: w.Result.Mispredicts,
		})
	}
	return g
}

// TestGoldenEstimates pins sampled estimates exactly: every window's
// placement and measured counts, and each run's extent. The fast-forward
// (emulation, predictor and cache warming, checkpoints) feeds every
// window, so any change to it that alters a warmed state shows here.
// Regenerate with `go test ./internal/sample/ -run TestGoldenEstimates
// -update` only when a model change intentionally alters results.
func TestGoldenEstimates(t *testing.T) {
	type golden struct {
		name  string
		prog  []isa.Instruction
		image *isa.Memory
		plan  Plan
		opts  Options
	}
	var cases []golden
	for _, name := range []string{"gcc", "mcf"} {
		prog, image := buildWorkload(t, name)
		cases = append(cases, golden{name, prog, image, PlanForBudget(1_000_000), Options{Budget: 1_000_000}})
	}
	haltProg, haltImage := buildHaltingLoop(8_000)
	cases = append(cases, golden{"halting-loop", haltProg, haltImage,
		Plan{Interval: 10_000, Warmup: 500, Measure: 2_000}, Options{Budget: 100_000_000, Verify: true}})
	perlProg, perlImage := buildWorkload(t, "perlbench")
	cases = append(cases, golden{"perlbench-acb", perlProg, perlImage,
		Plan{Interval: 25_000, Warmup: 1_000, Measure: 4_000}, Options{
			Budget:    200_000,
			NewScheme: func() ooo.Scheme { return core.New(core.DefaultConfig()) },
			Verify:    true,
		}})

	got := make([]goldenEstimate, len(cases))
	for i, c := range cases {
		est, err := Run(c.prog, c.image, c.plan, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if est.BoundaryFailures != 0 {
			t.Fatalf("%s: %d window-boundary architectural diffs", c.name, est.BoundaryFailures)
		}
		got[i] = goldenFromEstimate(c.name, est)
	}

	path := filepath.Join("testdata", "golden.json")
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d runs)", path, len(got))
		return
	}

	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	var want []goldenEstimate
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d runs, current code produced %d", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Name != g.Name || w.TotalInstrs != g.TotalInstrs || w.Halted != g.Halted || len(w.Windows) != len(g.Windows) {
			t.Errorf("%s: run = %s %d instrs halted=%v %d windows, golden %s %d instrs halted=%v %d windows",
				g.Name, g.Name, g.TotalInstrs, g.Halted, len(g.Windows), w.Name, w.TotalInstrs, w.Halted, len(w.Windows))
			continue
		}
		for j := range w.Windows {
			if w.Windows[j] != g.Windows[j] {
				t.Errorf("%s window %d diverged from golden\n golden: %+v\n    got: %+v", w.Name, j, w.Windows[j], g.Windows[j])
			}
		}
	}
}
