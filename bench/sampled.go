package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"acb/internal/bpu"
	"acb/internal/experiments"
	"acb/internal/sample"
)

// sampledNames are the sampled-long workloads: pointer chasers (mcf,
// soplex, h264ref), branchy integer code and the largest ACB winner.
var sampledNames = []string{"mcf", "gcc", "leela", "soplex", "h264ref", "lammps", "xz", "omnetpp"}

// windowJobs is the sampled windows' pool width, as acbsim -sampled uses
// on a 2-CPU host.
const windowJobs = 2

// sampledRun is one measured sample.Run.
type sampledRun struct {
	est         *sample.Estimate
	start       time.Time
	wall        time.Duration // the whole sample.Run
	fastForward time.Duration // start until the Pool hook is called
	windows     time.Duration // the Pool call
	heapMB      float64       // heap in use when fast-forward ends (with spans)
	// Recorded runs only: the warming calls and their replayed self time.
	stats   *layerStats
	bpuTime time.Duration
}

// warmReplayCalls bounds the warming calls a recorded sampled run keeps:
// replaying that prefix prices every warming call.
const warmReplayCalls = 300_000

// runSampledOnce performs one baseline sampled run with boundary
// verification, its windows on the experiments pool. With record it
// wraps the warmed predictor; with spans it records the run's phases and
// windows as spans.
func runSampledOnce(in *simInput, budget int64, record bool, spans *tracer) (sampledRun, error) {
	var run sampledRun
	var poolAt time.Time
	ln := newLanes(2, windowJobs)
	opts := sample.Options{
		Budget: budget,
		Verify: true,
		Pool: func(n int, job func(i int)) error {
			poolAt = time.Now()
			defer func() { run.windows = time.Since(poolAt) }()
			if spans != nil {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				run.heapMB = float64(ms.HeapAlloc) / (1 << 20)
				inner := job
				job = func(i int) {
					lane := ln.take()
					t := time.Now()
					inner(i)
					spans.add(span{Name: "sample.window", Cat: "ooo", ID: in.name, Parent: "sample.windows",
						Lane: lane, Start: t, End: time.Now(), Args: map[string]interface{}{"window": i}})
					ln.put(lane)
				}
			}
			return experiments.Pool(experiments.Options{Jobs: windowJobs}, n, job)
		},
	}
	var blog *bpuLog
	if record {
		run.stats, blog = &layerStats{}, &bpuLog{limit: warmReplayCalls}
		opts.NewPredictor = func() bpu.Predictor {
			return &tracedPredictor{inner: bpu.NewTAGE(bpu.DefaultTAGEConfig()), st: run.stats, log: blog}
		}
	}
	runtime.GC() // as simulate does
	run.start = time.Now()
	est, err := sample.Run(in.prog, in.mem, sample.PlanForBudget(budget), opts)
	run.wall = time.Since(run.start)
	run.est = est
	if err != nil {
		return run, fmt.Errorf("%s: %w", in.name, err)
	}
	run.fastForward = poolAt.Sub(run.start)
	if est.BoundaryFailures > 0 {
		return run, fmt.Errorf("%s: %d window boundaries diverge from the emulator", in.name, est.BoundaryFailures)
	}
	if record {
		prefix, err := blog.replayTime(bpu.NewTAGE(bpu.DefaultTAGEConfig()))
		if err != nil {
			return run, fmt.Errorf("%s: %w", in.name, err)
		}
		run.bpuTime = time.Duration(float64(prefix) * ratio(float64(run.stats.bpuCalls()), float64(len(blog.calls))))
	}
	if spans != nil {
		spans.add(span{Name: "sample.Run", Cat: "sample", ID: in.name, Lane: 1, Start: run.start, End: run.start.Add(run.wall),
			Args: map[string]interface{}{"windows": len(est.Windows), "instrs": est.TotalInstrs}})
		spans.add(span{Name: "sample.fastforward", Cat: "sample", ID: in.name, Parent: "sample.Run", Lane: 1,
			Start: run.start, End: poolAt})
		spans.add(span{Name: "sample.windows", Cat: "sample", ID: in.name, Parent: "sample.Run", Lane: 1,
			Start: poolAt, End: poolAt.Add(run.windows)})
	}
	return run, nil
}

// runSampled is the sampled-long workload: one sampled run per workload,
// in passes until the measuring time is spent. An operation is one
// sample.Run, preceded by a host-speed sample. A traced run follows each
// with a recorded rerun of it.
func runSampled(cfg settings, tr *tracer) (*result, error) {
	res := newResult()
	ws, err := workloadsNamed(sampledNames)
	if err != nil {
		return nil, err
	}
	g := cfg.golden
	inputs, err := setup(cfg, res,
		func(int) ([]simInput, error) { return buildInputs(ws, cfg.seed), nil },
		func([]simInput) error { return nil })
	if err != nil {
		return nil, err
	}

	var (
		ops scaled // seconds
		// Traced runs: the bare runs' phases, the recorded reruns' warming
		// calls and replayed time, and the estimates' statistics.
		wall, ff, windws, bpuTime time.Duration
		lay                       layerStats
		agg                       simAgg
		instrs                    int64
		nWindows, ci              []float64
		heapMB                    float64
		oh                        = newOverheads()
	)
	passes(cfg.measure, func(int) {
		errs := make([]error, len(inputs))
		var cpiErrs []float64
		for i := range inputs {
			in := &inputs[i]
			idx := cfg.speed.sample()
			run, err := runSampledOnce(in, cfg.sampledBudget, false, tr)
			if err == nil && g != nil {
				full, ok := g.FullCPI[in.name]
				e := math.Abs(run.est.CPIErrorPct(full))
				cpiErrs = append(cpiErrs, e)
				if !ok || e > experiments.SampledWorstErrorPct {
					err = fmt.Errorf("%s: sampled CPI %.4f is %.2f%% off the full-detail %.4f (bound %.0f%%)",
						in.name, run.est.CPI, e, full, experiments.SampledWorstErrorPct)
				}
			}
			errs[i] = err
			if run.est == nil {
				continue
			}
			ops.add(run.wall.Seconds(), idx)
			if tr == nil {
				continue
			}
			recorded, err := runSampledOnce(in, cfg.sampledBudget, true, nil)
			res.check(err)
			if err != nil {
				continue
			}
			oh.add(in.name, false, run.wall)
			oh.add(in.name, true, recorded.wall)
			wall += run.wall
			ff += run.fastForward
			windws += run.windows
			heapMB = math.Max(heapMB, run.heapMB)
			bpuTime += recorded.bpuTime
			lay.add(recorded.stats)
			instrs += run.est.TotalInstrs
			for w := range run.est.Windows {
				agg.add(&run.est.Windows[w].Result)
			}
			nWindows = append(nWindows, float64(len(run.est.Windows)))
			ci = append(ci, ratio(run.est.CI95, run.est.CPI))
		}
		// The mean bound holds over the whole mix: a pass that breaks it
		// fails every run in it.
		if len(cpiErrs) == len(inputs) {
			var sum float64
			for _, e := range cpiErrs {
				sum += e
			}
			if mean := sum / float64(len(cpiErrs)); mean > experiments.SampledMeanErrorPct {
				for i := range errs {
					if errs[i] == nil {
						errs[i] = fmt.Errorf("%s: pass mean sampled CPI error %.2f%% exceeds %.0f%%",
							inputs[i].name, mean, experiments.SampledMeanErrorPct)
					}
				}
			}
		}
		for _, err := range errs {
			res.check(err)
		}
	})
	if tr == nil {
		res.opLatencies(&ops)
		return res, nil
	}

	res.layer["sample.fastforward_share"] = ratio(ff.Seconds(), wall.Seconds())
	res.layer["ooo.share"] = ratio(windws.Seconds(), wall.Seconds())
	res.layer["bpu.share"] = ratio(bpuTime.Seconds(), wall.Seconds())
	res.layer["bpu.calls_per_kinstr"] = ratio(float64(lay.bpuCalls()), float64(instrs)/1000)
	res.layer["sample.windows"] = median(nWindows)
	res.layer["sample.ci95_rel"] = median(ci)
	res.layer["sample.heap_mb"] = heapMB
	agg.report(res)
	res.layer["trace_overhead_pct"] = oh.pct()
	return res, nil
}
