package experiments

import (
	"fmt"
	"sort"

	"acb/internal/config"
	"acb/internal/core"
	"acb/internal/ooo"
	"acb/internal/prog"
	"acb/internal/stats"
	"acb/internal/workload"
)

// OutlierD and OutlierE are the workloads reproducing the paper's
// category-D (DMP history pollution, recovered by perfect branch history)
// and category-E (select-µop allocation stalls, not recovered by PBH)
// behaviour for Figs. 9 and 10.
var (
	OutlierD = []string{"omnetpp", "xalancbmk"}
	OutlierE = []string{"h264ref", "eembc"}
)

func workloadsNamed(names []string) []workload.Workload {
	ws, err := workload.Expand(names)
	if err != nil {
		panic(err)
	}
	return ws
}

// Figure1 reproduces the paper's Fig. 1: speedup of a perfect branch
// predictor over the TAGE baseline on a continuum of scaled cores
// (1x/2x/3x width and depth). The paper's shape: the potential grows with
// scaling (≈2x more speculation-bound at 3x).
func Figure1(opts Options) *stats.Table {
	return configTable(opts, "geomean-speedup-perfectBP", SchemePerfectBP,
		config.Scaled(1), config.Scaled(2), config.Scaled(3))
}

// configTable tabulates kind's geomean speedup over the baseline on each
// core configuration.
func configTable(opts Options, column string, kind SchemeKind, cfgs ...config.Core) *stats.Table {
	opts.fill()
	t := stats.NewTable("config", column)
	for _, cfg := range cfgs {
		o := opts
		o.Config = cfg
		t.AddRow(cfg.Name, geomeanSpeedup(sweep(o, SchemeBaseline, kind), SchemeBaseline, kind))
	}
	return t
}

// TableI reproduces the paper's Table I: ACB's storage budget (386 bytes).
func TableI() *stats.Table {
	a := core.New(core.DefaultConfig())
	t := stats.NewTable("structure", "bytes")
	ct := (a.CriticalTable().StorageBits() + 7) / 8
	t.AddRow("Critical Table (64 x 17b)", ct)
	t.AddRow("Learning Table (1 entry)", 20)
	tb := (a.Table().StorageBits() + 7) / 8
	t.AddRow("ACB Table (32 x 2-way)", tb)
	t.AddRow("Tracking Table (1 entry)", 5)
	t.AddRow("Dynamo + fetch-context counters", 9)
	t.AddRow("Total", a.StorageBytes())
	return t
}

// TableII reports the simulated core parameters (the paper's Table II,
// "similar to Intel Skylake").
func TableII() *stats.Table {
	c := config.Skylake()
	m := c.Mem
	t := stats.NewTable("parameter", "value")
	t.AddRow("fetch width", c.FetchWidth)
	t.AddRow("allocation (OOO) width", c.AllocWidth)
	t.AddRow("issue width", c.IssueWidth)
	t.AddRow("retire width", c.RetireWidth)
	t.AddRow("ROB entries", c.ROBSize)
	t.AddRow("scheduler (IQ) entries", c.IQSize)
	t.AddRow("load queue entries", c.LQSize)
	t.AddRow("store queue entries", c.SQSize)
	t.AddRow("physical registers", c.PRFSize)
	t.AddRow("front-end depth / redirect (cycles)", c.FrontEndLatency)
	t.AddRow("L1D", fmt.Sprintf("%dKB %d-way, %d cycles", m.L1Size>>10, m.L1Ways, m.L1Lat))
	t.AddRow("L2", fmt.Sprintf("%dKB %d-way, %d cycles", m.L2Size>>10, m.L2Ways, m.L2Lat))
	t.AddRow("LLC", fmt.Sprintf("%dMB %d-way, %d cycles", m.LLCSize>>20, m.LLCWays, m.LLCLat))
	t.AddRow("DRAM latency (cycles)", m.DRAMLatency)
	t.AddRow("branch predictor", "TAGE: 8K-entry base + 5 x 512-entry tagged, hist 4..64")
	return t
}

// TableIII lists the workload suite with categories and the paper
// behaviour each mirrors.
func TableIII() *stats.Table {
	t := stats.NewTable("workload", "category", "mirrors")
	for _, w := range workload.All() {
		t.AddRow(w.Name, w.Category, w.Mirrors)
	}
	return t
}

// Figure6 reproduces Fig. 6: ACB's per-category and overall speedup and
// mis-speculation reduction over the baseline. Paper shape: +8% geomean,
// -22% pipeline flushes.
func Figure6(opts Options) *stats.Table {
	opts.fill()
	res := sweep(opts, SchemeBaseline, SchemeACB)
	t := stats.NewTable("group", "geomean-speedup", "flush-reduction-%")

	byCat := map[string][]string{}
	for _, w := range opts.Workloads {
		byCat[w.Category] = append(byCat[w.Category], w.Name)
	}
	var cats []string
	for c := range byCat {
		cats = append(cats, c)
	}
	sort.Strings(cats)

	agg := func(names []string) (float64, float64) {
		var sp []float64
		var fBase, fACB int64
		for _, n := range names {
			r := res[n]
			sp = append(sp, speedup(r[SchemeBaseline], r[SchemeACB]))
			fBase += r[SchemeBaseline].Flushes
			fACB += r[SchemeACB].Flushes
		}
		red := 0.0
		if fBase > 0 {
			red = (1 - float64(fACB)/float64(fBase)) * 100
		}
		return stats.Geomean(sp), red
	}

	var all []string
	for _, c := range cats {
		g, red := agg(byCat[c])
		t.AddRow(c, g, red)
		all = append(all, byCat[c]...)
	}
	g, red := agg(all)
	t.AddRow("ALL", g, red)
	return t
}

// Figure7 reproduces Fig. 7: per-workload mis-speculation ratio and
// performance ratio over baseline, sorted by performance ratio. Paper
// shape: flush reduction correlates with speedup; the largest positive
// outlier exceeds 2x; losses are contained within ~-5% by Dynamo;
// soplex-like workloads cut flushes without gaining.
func Figure7(opts Options) *stats.Table {
	opts.fill()
	res := sweep(opts, SchemeBaseline, SchemeACB)
	t := stats.NewTable("workload", "perf-ratio", "flush-ratio", "mispred-ratio")
	for _, w := range opts.Workloads {
		r := res[w.Name]
		base, acb := r[SchemeBaseline], r[SchemeACB]
		t.AddRow(w.Name,
			speedup(base, acb),
			ratio64(acb.Flushes, base.Flushes),
			ratio64(acb.Mispredicts, base.Mispredicts))
	}
	t.SortByColumn(1)
	return t
}

func ratio64(a, b int64) float64 { return stats.Ratio(float64(a), float64(b)) }

// Figure8 reproduces Fig. 8: ACB vs ACB-without-Dynamo vs DMP, per
// workload plus geomeans. Paper shape: Dynamo lifts ACB from ~6.7% to
// ~8.0% and contains the worst no-Dynamo outliers (≈-20%); DMP wins B1/B2
// classes but inverts on C/D/E.
func Figure8(opts Options) *stats.Table {
	return speedupTable(opts, SchemeACB, SchemeACBNoDynamo, SchemeDMP)
}

// speedupTable sweeps the baseline and kinds and tabulates each kind's
// speedup over the baseline per workload, then their geomeans.
func speedupTable(opts Options, kinds ...SchemeKind) *stats.Table {
	opts.fill()
	res := sweep(opts, append([]SchemeKind{SchemeBaseline}, kinds...)...)
	header, geomeans := []string{"workload"}, []interface{}{"GEOMEAN"}
	for _, k := range kinds {
		header = append(header, string(k))
		geomeans = append(geomeans, geomeanSpeedup(res, SchemeBaseline, k))
	}
	t := stats.NewTable(header...)
	for _, w := range opts.Workloads {
		row := []interface{}{w.Name}
		for _, k := range kinds {
			row = append(row, speedup(res[w.Name][SchemeBaseline], res[w.Name][k]))
		}
		t.AddRow(row...)
	}
	t.AddRow(geomeans...)
	return t
}

// Figure9 reproduces Fig. 9: on the D and E outlier classes, DMP vs the
// DMP-PBH oracle vs ACB — performance and mis-speculation ratio. Paper
// shape: DMP raises mispredictions via unstable branch history; PBH
// recovers category D but not E.
func Figure9(opts Options) *stats.Table {
	opts.fill()
	opts.Workloads = workloadsNamed(append(append([]string{}, OutlierD...), OutlierE...))
	res := sweep(opts, SchemeBaseline, SchemeDMP, SchemeDMPPBH, SchemeACB)
	t := stats.NewTable("workload", "class", "dmp-perf", "dmp-pbh-perf", "acb-perf", "dmp-mispred-ratio", "dmp-pbh-mispred-ratio")
	class := func(n string) string {
		for _, d := range OutlierD {
			if d == n {
				return "D"
			}
		}
		return "E"
	}
	for _, w := range opts.Workloads {
		r := res[w.Name]
		base := r[SchemeBaseline]
		t.AddRow(w.Name, class(w.Name),
			speedup(base, r[SchemeDMP]),
			speedup(base, r[SchemeDMPPBH]),
			speedup(base, r[SchemeACB]),
			ratio64(r[SchemeDMP].Mispredicts, base.Mispredicts),
			ratio64(r[SchemeDMPPBH].Mispredicts, base.Mispredicts))
	}
	return t
}

// Figure10 reproduces Fig. 10: allocation stalls on category-E workloads
// under DMP-PBH vs baseline. Paper shape: even with perfect history, the
// select-µop data dependencies inflate allocation stalls.
func Figure10(opts Options) *stats.Table {
	opts.fill()
	opts.Workloads = workloadsNamed(OutlierE)
	res := sweep(opts, SchemeBaseline, SchemeDMPPBH, SchemeACB)
	t := stats.NewTable("workload", "base-stalls/k", "dmp-pbh-stalls/k", "acb-stalls/k", "dmp-pbh-selects/k")
	for _, w := range opts.Workloads {
		r := res[w.Name]
		perK := func(res ooo.Result, v int64) float64 {
			return stats.Ratio(float64(v)*1000, float64(res.Retired))
		}
		t.AddRow(w.Name,
			perK(r[SchemeBaseline], r[SchemeBaseline].AllocStallSlots),
			perK(r[SchemeDMPPBH], r[SchemeDMPPBH].AllocStallSlots),
			perK(r[SchemeACB], r[SchemeACB].AllocStallSlots),
			perK(r[SchemeDMPPBH], r[SchemeDMPPBH].SelectUops))
	}
	return t
}

// Figure11 reproduces Fig. 11: ACB vs DHP per workload. Paper shape: DHP
// is coverage-limited (simple short hammocks only) and lands near half of
// ACB's gain; many workloads show no DHP sensitivity at all.
func Figure11(opts Options) *stats.Table {
	return speedupTable(opts, SchemeACB, SchemeDHP)
}

// CoreScaling reproduces Sec. V-D: ACB's geomean gain on the baseline core
// vs an 8-wide core with doubled resources. Paper shape: the gain grows
// (8.0% -> 8.6%).
func CoreScaling(opts Options) *stats.Table {
	return configTable(opts, "acb-geomean-speedup", SchemeACB, config.Skylake(), config.Future())
}

// PowerProxy reproduces Sec. V-E's qualitative power analysis: total OOO
// allocations and pipeline flushes under ACB relative to baseline. Paper
// shape: ~5% fewer total allocations, ~22% fewer flushes.
func PowerProxy(opts Options) *stats.Table {
	opts.fill()
	res := sweep(opts, SchemeBaseline, SchemeACB)
	var aBase, aACB, fBase, fACB int64
	for _, r := range res {
		aBase += r[SchemeBaseline].Allocations
		aACB += r[SchemeACB].Allocations
		fBase += r[SchemeBaseline].Flushes
		fACB += r[SchemeACB].Flushes
	}
	t := stats.NewTable("metric", "reduction-%")
	t.AddRow("total OOO allocations", (1-ratio64(aACB, aBase))*100)
	t.AddRow("pipeline flushes", (1-ratio64(fACB, fBase))*100)
	return t
}

// MispredictCensus reproduces the Sec. II motivation study: how many
// static branch PCs cover 95% of dynamic mispredictions, and the
// convergent / loop / non-convergent split of misprediction sources.
// Paper shape: ~64 PCs cover >95%; ~72% convergent conditionals,
// ~13% loops, ~13% non-convergent.
func MispredictCensus(opts Options) *stats.Table {
	opts.fill()
	t := stats.NewTable("workload", "pcs-for-95%", "convergent-%", "loop-%", "nonconv-%")
	type censusRow struct {
		pcs95               int
		conv, loop, nonconv float64
	}
	rows := make([]censusRow, len(opts.Workloads))
	runPool(&opts, len(opts.Workloads), func(i int) {
		w := &opts.Workloads[i]
		res := opts.simulate(w, catalogue[SchemeBaseline]).res

		type pcMiss struct {
			pc   int
			miss int64
		}
		var list []pcMiss
		var total int64
		for pc, st := range res.PerBranch {
			if st.Mispredict > 0 {
				list = append(list, pcMiss{pc, st.Mispredict})
				total += st.Mispredict
			}
		}
		// Tie-break equal miss counts by PC so the 95%-coverage count does
		// not depend on map iteration order.
		sort.Slice(list, func(i, j int) bool {
			if list[i].miss != list[j].miss {
				return list[i].miss > list[j].miss
			}
			return list[i].pc < list[j].pc
		})
		var cum int64
		pcs95 := 0
		for _, pm := range list {
			cum += pm.miss
			pcs95++
			if float64(cum) >= 0.95*float64(total) {
				break
			}
		}

		// Classify misprediction sources via the static CFG, using the
		// DMP criterion: convergent iff *both* paths re-join within the
		// learning window (N = 40).
		p, _ := w.Build()
		bounded := map[int]bool{}
		for _, hm := range prog.AnalyzeHammocks(p, 40) {
			bounded[hm.BranchPC] = true
		}
		var conv, loop, nonconv int64
		for _, pm := range list {
			in := p[pm.pc]
			switch {
			case in.Target <= pm.pc:
				loop += pm.miss
			case bounded[pm.pc]:
				conv += pm.miss
			default:
				nonconv += pm.miss
			}
		}
		pct := func(x int64) float64 { return stats.Ratio(float64(x)*100, float64(total)) }
		rows[i] = censusRow{pcs95, pct(conv), pct(loop), pct(nonconv)}
	})
	for i := range opts.Workloads {
		r := rows[i]
		t.AddRow(opts.Workloads[i].Name, r.pcs95, r.conv, r.loop, r.nonconv)
	}
	return t
}
