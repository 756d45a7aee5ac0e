package experiments

import (
	"acb/internal/core"
	"acb/internal/stats"
)

// sensitivityWorkloads is the representative subset the paper-style
// parameter sweeps run on: a dominant winner, a history-pollution
// outlier, a predication-hostile workload, a memory-shadowed workload and
// a broad H2P mix.
var sensitivityWorkloads = []string{"lammps", "omnetpp", "eembc", "soplex", "gobmk", "leela"}

// ablationWorkloads is the sensitivity subset less leela, the subset
// EXPERIMENTS.md's ablation claims (13 and 15) quote.
var ablationWorkloads = []string{"lammps", "omnetpp", "eembc", "soplex", "gobmk"}

// acbGeomeans runs the baseline and every ACB variant on the named
// workloads, all on one pool, and returns each variant's geomean speedup
// over the baseline. Speedups accumulate in workload order, so the
// geomeans do not depend on scheduling.
func acbGeomeans(opts Options, names []string, variants []Engine) []float64 {
	opts.fill()
	grid := runGrid(&opts, workloadsNamed(names), append([]Engine{catalogue[SchemeBaseline]}, variants...))
	out := make([]float64, len(variants))
	for v := range variants {
		sp := make([]float64, len(grid))
		for i, runs := range grid {
			sp[i] = speedup(runs[0].res, runs[v+1].res)
		}
		out[v] = stats.Geomean(sp)
	}
	return out
}

// sensitivity is a one-parameter sweep of ACB's configuration on the
// sensitivity subset: one row per value, with its geomean speedup.
func sensitivity[T any](opts Options, column string, values []T, set func(*core.Config, T)) *stats.Table {
	variants := make([]Engine, len(values))
	for i, v := range values {
		variants[i] = acbWith(func(c *core.Config) { set(c, v) })
	}
	t := stats.NewTable(column, "acb-geomean-speedup")
	for i, g := range acbGeomeans(opts, sensitivityWorkloads, variants) {
		t.AddRow(values[i], g)
	}
	return t
}

// SensitivityN reproduces the paper's sweep of the convergence-learning
// window ("we found N = 40 to be optimal", Sec. III-B): too small misses
// large-body convergences, too large admits unprofitable ones.
func SensitivityN(opts Options) *stats.Table {
	return sensitivity(opts, "N", []int{8, 16, 24, 40, 64, 96},
		func(c *core.Config, n int) { c.N = n })
}

// SensitivityEpoch reproduces the Dynamo epoch-length sweep ("epoch-length
// of 8K to 32K instructions as optimal (16K chosen)", Sec. III-C): short
// epochs are noisy, long ones blur phase changes.
func SensitivityEpoch(opts Options) *stats.Table {
	return sensitivity(opts, "epoch-instr", []int64{2048, 8192, 16384, 32768, 131072},
		func(c *core.Config, e int64) { c.Dynamo.EpochLen = e })
}

// SensitivityACBTable reproduces the ACB Table size sweep ("increasing
// its size from 32 to 256 had negligible effect", Sec. III-B).
func SensitivityACBTable(opts Options) *stats.Table {
	return sensitivity(opts, "acb-table-entries", []int{8, 16, 32, 64, 256},
		func(c *core.Config, n int) { c.ACBEntries = n })
}

// SensitivityCriticalTable reproduces the Critical Table size sweep ("a
// small 64-entry table provides sufficient coverage", Sec. III-A).
func SensitivityCriticalTable(opts Options) *stats.Table {
	return sensitivity(opts, "critical-table-entries", []int{16, 32, 64, 128},
		func(c *core.Config, n int) { c.CriticalEntries = n })
}

// SensitivityPredictor compares ACB's gain across baseline predictors:
// the weaker the predictor, the larger ACB's headroom (ACB is "applicable
// on top of any baseline branch predictor", Sec. VI).
func SensitivityPredictor(opts Options) *stats.Table {
	opts.fill()
	preds := []string{"bimodal", "gshare", "perceptron", "tage"}
	var engines []Engine
	for _, p := range preds {
		acb := catalogue[SchemeACB]
		acb.Predictor = p
		engines = append(engines, Engine{Predictor: p, Scheme: SchemeBaseline}, acb)
	}
	grid := runGrid(&opts, workloadsNamed(sensitivityWorkloads), engines)
	t := stats.NewTable("predictor", "baseline-geomean-IPC", "acb-geomean-speedup")
	for k, p := range preds {
		ipcs := make([]float64, len(grid))
		sp := make([]float64, len(grid))
		for i, runs := range grid {
			base, acb := runs[2*k].res, runs[2*k+1].res
			ipcs[i] = base.IPC
			sp[i] = speedup(base, acb)
		}
		t.AddRow(p, stats.Geomean(ipcs), stats.Geomean(sp))
	}
	return t
}

// Ablations quantifies the design choices DESIGN.md calls out, each as
// ACB's geomean speedup over the baseline on the ablation subset: the
// default configuration; without Dynamo (Fig. 8's variant); with the
// Sec. III-A ROB-quartile criticality filter; with DMP-style eager
// select-µops instead of stall-and-transparency (Sec. V-C, which the
// paper measured at only ~0.2%); and with the paper's rejected pre-Dynamo
// stall-counting throttle in Dynamo's place (Sec. V-B).
func Ablations(opts Options) *stats.Table {
	names := []string{"acb", "no-dynamo", "rob-quartile", "eager", "stall-throttle"}
	variants := []Engine{
		catalogue[SchemeACB],
		catalogue[SchemeACBNoDynamo],
		acbWith(func(c *core.Config) { c.ROBFracLimit = 0.25 }),
		catalogue[SchemeACBEager],
		acbWith(func(c *core.Config) { c.UseDynamo, c.ThrottleStalls = false, true }),
	}
	t := stats.NewTable("variant", "acb-geomean-speedup")
	for i, g := range acbGeomeans(opts, ablationWorkloads, variants) {
		t.AddRow(names[i], g)
	}
	return t
}
