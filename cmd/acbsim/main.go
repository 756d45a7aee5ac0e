// Command acbsim simulates one workload on one configuration and prints
// the run's statistics.
//
// Usage:
//
//	acbsim -workload lammps -scheme acb -budget 1000000
//	acbsim -workload omnetpp -scheme dmp -config future -format json
//
// -format ascii (the default) prints the full human-readable report;
// json and csv emit the run's metric/value summary table through the
// same stats.Table serialization acbsweep and the acbd API use.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"acb/internal/bpu"
	"acb/internal/config"
	"acb/internal/core"
	"acb/internal/experiments"
	"acb/internal/isa"
	"acb/internal/ooo"
	"acb/internal/sample"
	"acb/internal/stats"
	"acb/internal/trace"
	"acb/internal/workload"
)

func main() {
	var (
		name      = flag.String("workload", "lammps", "workload selector: name, trace:<file>, or adversarial entry (see acbsweep -list)")
		schemeStr = flag.String("scheme", "acb", "scheme: "+strings.Join(experiments.SchemeNames(), " | ")+" (perfect = perfect-bp)")
		budget    = flag.Int64("budget", 1_000_000, "retired-instruction budget")
		cfgName   = flag.String("config", "skylake", "skylake | skylake-2x | skylake-3x | future")
		predName  = flag.String("predictor", "tage", "predictor for schemes that do not pin one: "+strings.Join(bpu.Names(), " | "))
		format    = flag.String("format", "ascii", "output rendering: json | csv | ascii")
		topN      = flag.Int("top", 10, "print the N most-mispredicting branch PCs")
		pipe      = flag.Bool("pipestats", false, "collect and print pipeline utilization")

		sampled   = flag.Bool("sampled", false, "SMARTS-style sampled simulation (see docs/SAMPLING.md)")
		sInterval = flag.Int64("sample-interval", 0, "sampling interval in instructions (0 = scale to budget)")
		sWarmup   = flag.Int64("sample-warmup", 0, "detailed-but-unmeasured warm-up per window (0 = default)")
		sMeasure  = flag.Int64("sample-measure", 0, "measured span per window (0 = default)")
		sVerify   = flag.Bool("sample-verify", false, "diff architectural state against the functional reference at every window boundary")
		sCompare  = flag.Bool("sample-compare-full", false, "also run the full detailed simulation and report CPI error and speedup")
		record    = flag.String("record", "", "record the workload's functional branch trace to this file and exit")
	)
	flag.Parse()

	if _, err := new(stats.Table).Render(*format); err != nil {
		fail(err)
	}
	w, err := workload.Resolve(*name)
	if err != nil {
		fail(err)
	}
	cfg, err := config.ByName(*cfgName)
	if err != nil {
		fail(err)
	}

	p, m := w.Build()

	if *record != "" {
		steps, halted, err := trace.RecordFile(*record, p, m, *budget,
			trace.Header{Source: w.Name, Kind: "workload"})
		if err != nil {
			fail(err)
		}
		fmt.Printf("recorded %s: %d functional steps, halted=%v — replay with -workload trace:%s\n",
			*record, steps, halted, *record)
		return
	}

	eng, err := experiments.LookupEngine(*schemeStr)
	if err != nil {
		fail(err)
	}
	if eng.Predictor == "" { // the scheme does not pin its predictor
		eng.Predictor = *predName
	}
	newPredictor, newScheme, err := eng.Constructors(&w)
	if err != nil {
		fail(err)
	}

	if *sampled {
		plan := sample.PlanForBudget(*budget)
		if *sInterval > 0 {
			plan.Interval = *sInterval
		}
		if *sWarmup > 0 {
			plan.Warmup = *sWarmup
		}
		if *sMeasure > 0 {
			plan.Measure = *sMeasure
		}
		runSampled(&w, p, m, plan, sample.Options{
			Budget:       *budget,
			Config:       cfg,
			NewPredictor: newPredictor,
			NewScheme:    newScheme,
			Verify:       *sVerify,
			Pool: func(n int, run func(i int)) error {
				return experiments.Pool(experiments.Options{}, n, run)
			},
		}, *sCompare, *format)
		return
	}

	predictor, scheme := newPredictor(), newScheme()
	acb, _ := scheme.(*core.ACB)
	simCore := ooo.NewWithMemory(cfg, p, predictor, scheme, m)
	if *pipe {
		simCore.EnablePipeStats()
	}
	res, err := simCore.Run(*budget)
	if err != nil {
		fail(err)
	}

	if *format != "ascii" {
		emit(resultTable(&w, cfg, predictor, &res), *format)
		return
	}

	fmt.Printf("workload      %s (%s) — %s\n", w.Name, w.Category, w.Mirrors)
	fmt.Printf("config        %s   predictor %s   scheme %s\n", cfg.Name, predictor.Name(), res.Scheme)
	fmt.Printf("retired       %d in %d cycles  (IPC %.3f)\n", res.Retired, res.Cycles, res.IPC)
	fmt.Printf("cond branches %d   mispredicts %d (%.2f /kilo)\n", res.CondBranches, res.Mispredicts, res.MispredPerKilo())
	fmt.Printf("flushes       %d (%.2f /kilo, %d divergence)\n", res.Flushes, res.FlushPerKilo(), res.DivFlushes)
	fmt.Printf("predications  %d   select-µops %d   transparent ops %d   invalidated mem %d\n",
		res.Predications, res.SelectUops, res.TransparentOps, res.InvalidatedMem)
	fmt.Printf("allocations   %d (wrong-path %d)   alloc-stall slots %d\n",
		res.Allocations, res.WrongPathAllocs, res.AllocStallSlots)
	fmt.Printf("L1D           %d hits / %d misses   LLC %d hits / %d misses   fwd %d\n",
		res.L1Hits, res.L1Misses, res.LLCHits, res.LLCMisses, res.LoadForwards)

	if *pipe {
		fmt.Printf("\n%s", simCore.PipeStats().String())
	}

	if acb != nil {
		fmt.Printf("\nACB: learned %d convergences, %d divergences, %d tracking failures, storage %d bytes\n",
			acb.Learnings, acb.Divergences, acb.TrackFails, acb.StorageBytes())
		acb.Table().ForEach(func(e *core.ACBEntry) {
			fmt.Printf("  entry pc=%-5d %-7s recon=%-5d firstTaken=%-5v body=%-3d conf=%-2d dynamo=%s\n",
				e.PC, e.Type, e.ReconPC, e.FirstTaken, e.BodySize, e.Confidence, e.State)
		})
	}

	if *topN > 0 {
		type row struct {
			pc int
			st *ooo.BranchStat
		}
		var rows []row
		for pc, st := range res.PerBranch {
			rows = append(rows, row{pc, st})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].st.Mispredict > rows[j].st.Mispredict })
		fmt.Printf("\ntop mispredicting branches:\n")
		for i, r := range rows {
			if i >= *topN || r.st.Mispredict == 0 {
				break
			}
			fmt.Printf("  pc=%-5d count=%-8d mispredict=%-7d predicated=%-7d diverged=%d\n",
				r.pc, r.st.Count, r.st.Mispredict, r.st.Predicated, r.st.Diverged)
		}
	}
}

// runSampled performs the SMARTS-style sampled run (and, with
// compareFull, the full detailed run it estimates), printing the estimate
// in the requested format. Window jobs fan out over opts.Pool, the
// experiments worker pool, so a sampled run uses every core even for a
// single workload.
func runSampled(w *workload.Workload, p []isa.Instruction, m *isa.Memory, plan sample.Plan, opts sample.Options, compareFull bool, format string) {
	cfg := opts.Config
	sampledStart := time.Now()
	est, err := sample.Run(p, m, plan, opts)
	if err != nil {
		fail(err)
	}
	sampledWall := time.Since(sampledStart)

	var fullCPI float64
	var fullWall time.Duration
	if compareFull {
		fullStart := time.Now()
		full := ooo.NewWithMemory(cfg, p, opts.NewPredictor(), opts.NewScheme(), m)
		res, err := full.Run(opts.Budget)
		if err != nil {
			fail(err)
		}
		fullWall = time.Since(fullStart)
		fullCPI = float64(res.Cycles) / float64(res.Retired)
	}

	if format != "ascii" {
		t := stats.NewTable("metric", "value")
		t.AddRow("workload", w.Name)
		t.AddRow("config", cfg.Name)
		t.AddRow("sampled-cpi", fmt.Sprintf("%.6f", est.CPI))
		t.AddRow("sample-ci95", fmt.Sprintf("%.6f", est.CI95))
		t.AddRow("sample-windows", len(est.Windows))
		t.AddRow("sample-interval", plan.Interval)
		t.AddRow("sample-warmup", plan.Warmup)
		t.AddRow("sample-measure", plan.Measure)
		t.AddRow("measured-instrs", est.MeasuredInstrs)
		t.AddRow("total-instrs", est.TotalInstrs)
		t.AddRow("est-cycles", est.EstCycles)
		t.AddRow("boundary-diffs", est.BoundaryFailures)
		t.AddRow("sampled-wall-ms", sampledWall.Milliseconds())
		if compareFull {
			t.AddRow("full-cpi", fmt.Sprintf("%.6f", fullCPI))
			t.AddRow("cpi-error-pct", fmt.Sprintf("%.4f", est.CPIErrorPct(fullCPI)))
			t.AddRow("full-wall-ms", fullWall.Milliseconds())
			t.AddRow("sampled-speedup-x", fmt.Sprintf("%.2f", float64(fullWall)/float64(sampledWall)))
		}
		emit(t, format)
		return
	}

	fmt.Printf("workload      %s (%s) — %s\n", w.Name, w.Category, w.Mirrors)
	fmt.Printf("config        %s   sampled (interval %d, warmup %d, measure %d)\n",
		cfg.Name, plan.Interval, plan.Warmup, plan.Measure)
	fmt.Printf("sampled CPI   %.4f ± %.4f (95%% CI) over %d windows\n", est.CPI, est.CI95, len(est.Windows))
	fmt.Printf("measured      %d of %d instrs (%.1f%% detailed)   est cycles %d\n",
		est.MeasuredInstrs, est.TotalInstrs,
		100*float64(est.MeasuredInstrs)/float64(est.TotalInstrs), est.EstCycles)
	if opts.Verify {
		fmt.Printf("boundaries    %d windows verified, %d diverged\n", len(est.Windows), est.BoundaryFailures)
		for _, win := range est.Windows {
			if win.BoundaryDiff != "" {
				fmt.Printf("  window %d (start %d): %s\n", win.Index, win.Start, win.BoundaryDiff)
			}
		}
	}
	fmt.Printf("wall          sampled %d ms\n", sampledWall.Milliseconds())
	if compareFull {
		fmt.Printf("full CPI      %.4f in %d ms — sampled error %+.2f%%, speedup %.1fx\n",
			fullCPI, fullWall.Milliseconds(), est.CPIErrorPct(fullCPI),
			float64(fullWall)/float64(sampledWall))
	}
}

// resultTable flattens one run into a metric/value stats.Table for the
// json and csv formats.
func resultTable(w *workload.Workload, cfg config.Core, pred bpu.Predictor, res *ooo.Result) *stats.Table {
	t := stats.NewTable("metric", "value")
	t.AddRow("workload", w.Name)
	t.AddRow("category", w.Category)
	t.AddRow("config", cfg.Name)
	t.AddRow("predictor", pred.Name())
	t.AddRow("scheme", res.Scheme)
	t.AddRow("retired", res.Retired)
	t.AddRow("cycles", res.Cycles)
	t.AddRow("ipc", res.IPC)
	t.AddRow("cond-branches", res.CondBranches)
	t.AddRow("mispredicts", res.Mispredicts)
	t.AddRow("mispredicts-per-kilo", res.MispredPerKilo())
	t.AddRow("flushes", res.Flushes)
	t.AddRow("flushes-per-kilo", res.FlushPerKilo())
	t.AddRow("divergence-flushes", res.DivFlushes)
	t.AddRow("predications", res.Predications)
	t.AddRow("select-uops", res.SelectUops)
	t.AddRow("transparent-ops", res.TransparentOps)
	t.AddRow("invalidated-mem", res.InvalidatedMem)
	t.AddRow("allocations", res.Allocations)
	t.AddRow("wrong-path-allocations", res.WrongPathAllocs)
	t.AddRow("alloc-stall-slots", res.AllocStallSlots)
	t.AddRow("l1d-hits", res.L1Hits)
	t.AddRow("l1d-misses", res.L1Misses)
	t.AddRow("llc-hits", res.LLCHits)
	t.AddRow("llc-misses", res.LLCMisses)
	t.AddRow("load-forwards", res.LoadForwards)
	return t
}

// emit prints t in format.
func emit(t *stats.Table, format string) {
	out, err := t.Render(format)
	if err != nil {
		fail(err)
	}
	fmt.Print(out)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
