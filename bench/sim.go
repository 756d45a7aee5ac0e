package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"acb/internal/bpu"
	"acb/internal/config"
	"acb/internal/core"
	"acb/internal/isa"
	"acb/internal/ooo"
	"acb/internal/workload"
)

// simInput is one suite workload built for the run's seed.
type simInput struct {
	name string
	prog []isa.Instruction
	mem  *isa.Memory // pristine image: every run gets a clone
}

// buildInputs builds each workload with the seed added to its Spec.Seed.
func buildInputs(ws []workload.Workload, seed int64) []simInput {
	out := make([]simInput, len(ws))
	for i, w := range ws {
		w.Spec.Seed += uint64(seed)
		p, m := w.Build()
		out[i] = simInput{name: w.Name, prog: p, mem: m}
	}
	return out
}

// workloadsNamed returns the named suite workloads in order.
func workloadsNamed(names []string) ([]workload.Workload, error) {
	ws := make([]workload.Workload, len(names))
	for i, n := range names {
		w, err := workload.ByName(n)
		if err != nil {
			return nil, err
		}
		ws[i] = w
	}
	return ws, nil
}

// simRun is one measured simulation.
type simRun struct {
	res   ooo.Result
	start time.Time
	wall  time.Duration // predictor/scheme construction + NewWithMemory + Run
	// mallocs counts heap allocations during the run; a concurrent GC
	// cycle can only add to it.
	mallocs uint64
	// Traced runs only: wrapper counts, and the predictor's and the
	// scheme's self time, replayed. A traced run's wall includes the
	// recording; pair it with a bare run's for the simulation's time.
	stats             *layerStats
	bpuTime, hookTime time.Duration
}

// newEngine builds the predictor and the scheme (nil for the baseline) a
// simulation of the named scheme runs with.
func newEngine(scheme string) (bpu.Predictor, ooo.Scheme) {
	var sch ooo.Scheme
	if scheme == "acb" {
		sch = core.New(core.DefaultConfig())
	}
	return bpu.NewTAGE(bpu.DefaultTAGEConfig()), sch
}

// simulate runs one engine over a clone of the input's image: bare, or
// with the recording predictor and scheme wrappers when traced is set. It
// collects garbage first, so earlier runs' garbage is not charged to this
// one.
func simulate(in *simInput, scheme string, budget int64, traced bool) (simRun, error) {
	img := in.mem.Clone()
	var run simRun
	var blog *bpuLog
	var hlog *hookLog
	if traced {
		run.stats = &layerStats{}
		blog, hlog = &bpuLog{}, &hookLog{}
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run.start = time.Now()
	pred, sch := newEngine(scheme)
	if traced {
		pred = &tracedPredictor{inner: pred, st: run.stats, log: blog}
		if sch != nil {
			sch = &tracedScheme{inner: sch, st: run.stats, log: hlog}
		}
	}
	res, err := ooo.NewWithMemory(config.Skylake(), in.prog, pred, sch, img).Run(budget)
	run.wall = time.Since(run.start)
	runtime.ReadMemStats(&after)
	run.mallocs = after.Mallocs - before.Mallocs
	run.res = res
	if err != nil {
		return run, fmt.Errorf("%s/%s: %w", in.name, scheme, err)
	}
	if !traced {
		return run, nil
	}
	fresh, freshScheme := newEngine(scheme)
	if run.bpuTime, err = blog.replayTime(fresh); err == nil && freshScheme != nil {
		run.hookTime, err = hlog.replayTime(freshScheme)
	}
	if err != nil {
		return run, fmt.Errorf("%s/%s: %w", in.name, scheme, err)
	}
	return run, nil
}

// checkRegs compares the core's final registers with the functional
// emulator run to the same retired count.
func checkRegs(in *simInput, res *ooo.Result) error {
	ref := isa.NewArchState(in.mem.CloneCOW())
	ref.Run(in.prog, res.Retired)
	for r := range ref.Regs {
		if ref.Regs[r] != res.FinalRegs[r] {
			return fmt.Errorf("%s/%s: r%d = %#x after %d instructions, emulator has %#x",
				in.name, res.Scheme, r, res.FinalRegs[r], res.Retired, ref.Regs[r])
		}
	}
	return nil
}

//go:embed testdata/golden.json
var goldenJSON []byte

// golden pins the seed-0 outputs at the default sizes: the exact counters
// of every fig6 (workload, scheme) simulation and the full-detail CPI of
// every sampled-long workload.
type golden struct {
	Fig6    map[string]goldenSim `json:"fig6"` // key "<workload>/<scheme>"
	FullCPI map[string]float64   `json:"sampled_full_cpi"`
}

type goldenSim struct {
	Cycles       int64 `json:"cycles"`
	Retired      int64 `json:"retired"`
	Flushes      int64 `json:"flushes"`
	DivFlushes   int64 `json:"div_flushes"`
	Predications int64 `json:"predications"`
}

func goldenOf(res *ooo.Result) goldenSim {
	return goldenSim{res.Cycles, res.Retired, res.Flushes, res.DivFlushes, res.Predications}
}

func loadGolden() (*golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	return &g, nil
}

// checkFig6 checks one fig6 simulation: its final registers against the
// emulator, and its counters against the golden when there is one.
func checkFig6(in *simInput, scheme string, res *ooo.Result, g *golden) error {
	if err := checkRegs(in, res); err != nil || g == nil {
		return err
	}
	key := in.name + "/" + scheme
	want, ok := g.Fig6[key]
	if !ok {
		return fmt.Errorf("%s: not in the golden", key)
	}
	if got := goldenOf(res); got != want {
		return fmt.Errorf("%s: %+v, golden %+v", key, got, want)
	}
	return nil
}

// simAgg sums the simulated statistics of a workload's traced runs.
type simAgg struct {
	cycles, retired, flushes, divFlushes, predications int64
	l1Hits, l1Misses, llcHits, llcMisses               int64
}

func (a *simAgg) add(r *ooo.Result) {
	a.cycles += r.Cycles
	a.retired += r.Retired
	a.flushes += r.Flushes
	a.divFlushes += r.DivFlushes
	a.predications += r.Predications
	a.l1Hits += r.L1Hits
	a.l1Misses += r.L1Misses
	a.llcHits += r.LLCHits
	a.llcMisses += r.LLCMisses
}

// report sets the simulated per-layer metrics. They depend only on the
// inputs, so any simulator-speed change must leave them identical.
func (a *simAgg) report(res *result) {
	kinstr := float64(a.retired) / 1000
	res.layer["ooo.ipc"] = ratio(float64(a.retired), float64(a.cycles))
	res.layer["ooo.flushes_per_kinstr"] = ratio(float64(a.flushes), kinstr)
	res.layer["core.predications_per_kinstr"] = ratio(float64(a.predications), kinstr)
	res.layer["core.reconverge_ratio"] = ratio(float64(a.predications-a.divFlushes), float64(a.predications))
	res.layer["mem.l1_miss_rate"] = ratio(float64(a.l1Misses), float64(a.l1Hits+a.l1Misses))
	res.layer["mem.llc_miss_rate"] = ratio(float64(a.llcMisses), float64(a.llcHits+a.llcMisses))
}

// passes runs pass(p) until the measuring time is spent. A pass starts
// only while more than half the previous pass's time is left, so a run
// measures about that long in whole passes, and always at least one.
func passes(measure time.Duration, pass func(p int)) {
	start := time.Now()
	var last time.Duration
	for p := 0; p == 0 || time.Since(start)+last/2 < measure; p++ {
		t := time.Now()
		pass(p)
		last = time.Since(t)
	}
}

// runFig6 is the fig6-baseline / fig6-acb workload: every suite workload
// under one scheme, one simulation at a time, in passes until the
// measuring time is spent. An operation is one simulation, preceded by a
// host-speed sample. A traced run follows each simulation with a recorded
// rerun of it.
func runFig6(cfg settings, tr *tracer, scheme string) (*result, error) {
	res := newResult()
	inputs, err := setup(cfg, res,
		func(int) ([]simInput, error) { return buildInputs(workload.All(), cfg.seed), nil },
		func([]simInput) error { return nil })
	if err != nil {
		return nil, err
	}

	var (
		ops scaled // seconds
		// Traced runs: the paired bare runs' time, the layers' replayed
		// self time, call counts and simulated statistics.
		bare, bpuTime, hookTime time.Duration
		lay                     layerStats
		agg                     simAgg
		oh                      = newOverheads()
	)
	passes(cfg.measure, func(int) {
		for i := range inputs {
			in := &inputs[i]
			idx := cfg.speed.sample()
			run, err := simulate(in, scheme, cfg.fig6Budget, false)
			if err == nil {
				err = checkFig6(in, scheme, &run.res, cfg.golden)
			}
			res.check(err)
			if err != nil {
				continue
			}
			ops.add(run.wall.Seconds(), idx)
			if tr == nil {
				continue
			}
			// Traced: the same simulation again, recorded, then replayed.
			traced, err := simulate(in, scheme, cfg.fig6Budget, true)
			if err == nil {
				err = checkFig6(in, scheme, &traced.res, cfg.golden)
			}
			res.check(err)
			if err != nil {
				continue
			}
			oh.add(in.name, false, run.wall)
			oh.add(in.name, true, traced.wall)
			bare += run.wall
			bpuTime += traced.bpuTime
			hookTime += traced.hookTime
			lay.add(traced.stats)
			agg.add(&traced.res)
			tr.add(span{Name: "ooo.Run", Cat: "ooo", ID: in.name + "/" + scheme, Lane: 1,
				Start: run.start, End: run.start.Add(run.wall),
				Args: map[string]interface{}{
					"cycles": run.res.Cycles, "retired": run.res.Retired, "mallocs": run.mallocs,
					"bpu_calls": traced.stats.bpuCalls(), "bpu_self_ms": traced.bpuTime.Seconds() * 1e3,
					"core_calls": traced.stats.hookCalls(), "core_self_ms": traced.hookTime.Seconds() * 1e3,
					"ooo_self_ms": (run.wall - traced.bpuTime - traced.hookTime).Seconds() * 1e3,
				}})
		}
	})
	if tr == nil {
		res.opLatencies(&ops)
		return res, nil
	}

	kinstr := float64(agg.retired) / 1000
	res.layer["ooo.share"] = ratio((bare - bpuTime - hookTime).Seconds(), bare.Seconds())
	res.layer["bpu.share"] = ratio(bpuTime.Seconds(), bare.Seconds())
	res.layer["core.share"] = ratio(hookTime.Seconds(), bare.Seconds())
	res.layer["bpu.calls_per_kinstr"] = ratio(float64(lay.bpuCalls()), kinstr)
	for h, name := range hookNames {
		res.layer["core.calls_per_kinstr."+name] = ratio(float64(lay.hooks[h]), kinstr)
	}
	agg.report(res)
	res.layer["trace_overhead_pct"] = oh.pct()
	return res, nil
}
