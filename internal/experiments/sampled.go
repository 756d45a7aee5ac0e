package experiments

import (
	"fmt"
	"time"

	"acb/internal/sample"
	"acb/internal/stats"
)

// SampledWorstErrorPct and SampledMeanErrorPct are the documented CPI
// error bounds for sampled simulation under PlanForBudget (see
// docs/SAMPLING.md): CI enforces the worst-case bound on every fig6
// workload and the mean bound across the suite. Empirically the suite mean
// sits near 2% with two chase-heavy outliers around 10% (wrong-path memory
// traffic is invisible to functional warming); the bounds leave headroom
// for workload drift without letting a real regression through.
const (
	SampledWorstErrorPct = 12.0
	SampledMeanErrorPct  = 3.0
)

// SampledFig6 is the tracked-metric experiment for sampled simulation: for
// every fig6 workload it runs the baseline core both ways — full detailed
// simulation and SMARTS-style sampled simulation with window-boundary
// verification — and reports the sampled CPI estimate, its confidence
// interval, the signed error against the full run, and the number of
// boundary divergences (always 0 on a healthy tree).
//
// The baseline scheme is used because predication schemes learn over the
// whole run and would start each window cold (docs/SAMPLING.md
// "Limitations"); the forced schemes are covered by the difftest sampled
// matrix instead. The table is deterministic — no wall-clock columns — so
// acbd's content-addressed result cache stays byte-identical across
// workers; speedup is asserted by the CI smoke job via acbsim timing.
func SampledFig6(opts Options) *stats.Table {
	opts.fill()
	plan := sample.PlanForBudget(opts.Budget)

	type row struct {
		fullCPI float64
		est     *sample.Estimate
	}
	rows := make([]row, len(opts.Workloads))
	runPool(&opts, len(opts.Workloads), func(i int) {
		w := &opts.Workloads[i]
		img := &image{w: w}
		full := opts.simulate(img, catalogue[SchemeBaseline]).res
		// The sampled run builds the image if the full run was a memo hit.
		start := time.Now()
		p, m := img.build(opts.Stats)
		est, err := sample.Run(p, m.CloneCOW(), plan, sample.Options{
			Budget:  opts.Budget,
			Config:  opts.Config,
			Verify:  true,
			Context: opts.Context,
		})
		if err != nil {
			panic(fmt.Errorf("experiments: sampled %s: %w", w.Name, err))
		}
		if opts.Stats != nil {
			// A sampled run is simulation time too, though not a
			// memoized simulation.
			opts.Stats.sim.Add(int64(time.Since(start)))
		}
		rows[i] = row{fullCPI: float64(full.Cycles) / float64(full.Retired), est: est}
	})

	t := stats.NewTable("workload", "full-cpi", "sampled-cpi", "err-pct", "ci95", "windows", "boundary-diffs")
	for i, w := range opts.Workloads {
		r := rows[i]
		if r.est == nil { // cancelled before this slot ran
			continue
		}
		t.AddRow(w.Name,
			fmt.Sprintf("%.4f", r.fullCPI),
			fmt.Sprintf("%.4f", r.est.CPI),
			fmt.Sprintf("%.2f", r.est.CPIErrorPct(r.fullCPI)),
			fmt.Sprintf("%.4f", r.est.CI95),
			len(r.est.Windows),
			r.est.BoundaryFailures)
	}
	return t
}
