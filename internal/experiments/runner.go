// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. V) on the synthetic workload suite: one exported
// function per experiment, each returning a stats.Table whose rows are the
// data series the corresponding paper figure plots. EXPERIMENTS.md records
// the paper-vs-measured comparison for each.
//
// Every simulation goes through one run path (Options.simulate), keyed by
// everything that decides its result and memoized for the life of its
// Options value, so experiments that share a simulation run it once. A
// grid builds each workload's image once and runs every engine on a
// copy-on-write clone of it.
// Simulations are independent and seed-deterministic, so the harness fans
// them out over a bounded worker pool (Options.Jobs); results are
// aggregated by job index, which makes the emitted tables byte-identical
// whatever the job count.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"acb/internal/config"
	"acb/internal/core"
	"acb/internal/dmp"
	"acb/internal/isa"
	"acb/internal/ooo"
	"acb/internal/stats"
	"acb/internal/workload"
)

// Options controls an experiment run.
type Options struct {
	// Budget is the retired-instruction budget per simulation.
	Budget int64
	// Workloads defaults to the full suite.
	Workloads []workload.Workload
	// Config defaults to the Skylake-like baseline.
	Config config.Core
	// Jobs bounds how many simulations run concurrently. 0 means
	// runtime.GOMAXPROCS(0); 1 runs them one at a time, in order.
	Jobs int
	// Verbose emits per-run progress and a per-pool runner summary
	// through Logf.
	Verbose bool
	Logf    func(format string, args ...interface{})
	// Stats, when non-nil, accumulates runner totals across every pool
	// executed with these Options (acbsweep prints it after an -all run).
	Stats *RunnerStats
	// CPIStats, when non-nil, accumulates per-scheme CPI bucket totals
	// across every simulation run with these Options; the acbd service
	// exposes the totals on /v1/metrics. Every simulation attributes a
	// CPI stack (ooo.Result.CPI) whether or not it is collected here:
	// attribution changes no other field of a result, so one memoized
	// run serves every experiment.
	CPIStats *CPIAccumulator
	// Context, when non-nil, cancels the run cooperatively: queued
	// simulations are skipped and in-flight ones stop mid-run (see
	// ooo.Core.RunContext). Callers must go through Run to observe the
	// cancellation as an error; direct experiment calls panic instead.
	Context context.Context

	// memo is shared by every copy of an Options value made after
	// DefaultOptions or fill created it: one acbsweep process, or one
	// acbd job, runs each distinct simulation once.
	memo *memo
}

// DefaultOptions returns the default budget and configuration, with a
// fresh memo that every experiment run with (copies of) the value shares.
func DefaultOptions() Options {
	return Options{
		Budget: 400_000,
		Config: config.Skylake(),
		memo:   &memo{},
	}
}

func (o *Options) fill() {
	if o.memo == nil {
		o.memo = &memo{}
	}
	if o.Budget == 0 {
		o.Budget = 400_000
	}
	if len(o.Workloads) == 0 {
		o.Workloads = workload.All()
	}
	if o.Config.Name == "" {
		o.Config = config.Skylake()
	}
	if o.Jobs <= 0 {
		o.Jobs = runtime.GOMAXPROCS(0)
	}
	if o.Logf == nil {
		o.Logf = func(string, ...interface{}) {}
	}
	if o.Context == nil {
		o.Context = context.Background()
	}
	// Serialise the sink: parallel jobs emit whole lines, never
	// interleaved mid-line.
	logf := o.Logf
	var mu sync.Mutex
	o.Logf = func(format string, args ...interface{}) {
		mu.Lock()
		defer mu.Unlock()
		logf(format, args...)
	}
}

// RunnerStats accumulates runner totals: simulations run (a memo hit is
// not one), workload images built and the time spent building them (a
// DMP profile's training image is part of its profile), dormant prefixes
// shared by a baseline and an ACB simulation (see prefix) and their
// cycles, pool wall-clock time, the cumulative single-threaded simulation
// time (each run's whole computation: DMP profile, image build if it
// builds one, and run, with a shared prefix counted once; its ratio to
// wall time is the effective parallel speedup; sampled-fig6's sampled
// runs count in it), and total simulated cycles, a shared prefix's once —
// the numerator of the harness's own cycles-per-second throughput metric.
// Both runs' CPI stacks cover a shared prefix, so they sum to the
// simulated cycles plus the shared prefixes' cycles.
type RunnerStats struct {
	sims, builds, build, prefixes, prefixCycles, wall, sim, cycles atomic.Int64
}

// Simulations returns the number of simulations run.
func (s *RunnerStats) Simulations() int64 { return s.sims.Load() }

// Builds returns the number of workload images built.
func (s *RunnerStats) Builds() int64 { return s.builds.Load() }

// BuildTime returns the cumulative time spent building workload images.
func (s *RunnerStats) BuildTime() time.Duration { return time.Duration(s.build.Load()) }

// Prefixes returns the number of dormant prefixes two simulations shared.
func (s *RunnerStats) Prefixes() int64 { return s.prefixes.Load() }

// Cycles returns the total simulated cycles.
func (s *RunnerStats) Cycles() int64 { return s.cycles.Load() }

// Wall returns the cumulative wall-clock time across pools.
func (s *RunnerStats) Wall() time.Duration { return time.Duration(s.wall.Load()) }

// Sim returns the cumulative single-threaded simulation time.
func (s *RunnerStats) Sim() time.Duration { return time.Duration(s.sim.Load()) }

// Speedup returns cumulative simulation time / wall time (1.0 for a
// serial run, approaching the worker count under ideal scaling). The
// second return is false when no wall time has accumulated yet — i.e.
// there is no measurement, as opposed to a measured 0x.
func (s *RunnerStats) Speedup() (float64, bool) {
	if s.Wall() <= 0 {
		return 0, false
	}
	return float64(s.Sim()) / float64(s.Wall()), true
}

func (s *RunnerStats) String() string {
	sp := "n/a (no runs)"
	if x, ok := s.Speedup(); ok {
		sp = fmt.Sprintf("%.2fx", x)
	}
	return fmt.Sprintf("%d simulations, %d builds (%s), %d shared prefixes (%d cycles), wall %s, sim %s, effective speedup %s",
		s.Simulations(), s.Builds(), s.BuildTime().Round(time.Millisecond), s.Prefixes(), s.prefixCycles.Load(),
		s.Wall().Round(time.Millisecond), s.Sim().Round(time.Millisecond), sp)
}

// poolError carries the first job failure out of a pool. It wraps the
// underlying error (rather than flattening it to a string) so callers —
// experiments.Run in particular — can errors.Is it against
// context.Canceled / DeadlineExceeded after recovering the re-panic.
type poolError struct {
	job int
	err error
}

func (e *poolError) Error() string { return fmt.Sprintf("experiments: job %d: %v", e.job, e.err) }
func (e *poolError) Unwrap() error { return e.err }

// runPool executes jobs 0..n-1 with at most opts.Jobs running at once.
// Each job writes into its own pre-allocated result slot, so aggregation
// order — and therefore every emitted table — is independent of
// scheduling. A panic in any job is re-raised on the caller's goroutine
// after the pool drains, as a *poolError. opts must be filled. When
// opts.Context is cancelled, not-yet-started jobs are
// skipped, leaving their result slots zero — callers must treat a
// cancelled context as poisoning the whole pool's output.
func runPool(opts *Options, n int, run func(i int)) {
	if n == 0 {
		return
	}
	workers := min(opts.Jobs, n)
	start := time.Now()
	var panicked atomic.Pointer[poolError]
	guarded := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				err, ok := r.(error)
				if !ok {
					err = fmt.Errorf("%v", r)
				}
				panicked.CompareAndSwap(nil, &poolError{job: i, err: err})
			}
		}()
		run(i)
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || opts.Context.Err() != nil {
					return
				}
				guarded(i)
			}
		}()
	}
	wg.Wait()

	wall := time.Since(start)
	if opts.Stats != nil {
		opts.Stats.wall.Add(int64(wall))
	}
	if opts.Verbose {
		opts.Logf("runner: %d jobs on %d workers: wall %s", n, workers, wall.Round(time.Millisecond))
	}
	if p := panicked.Load(); p != nil {
		panic(error(p))
	}
}

// Pool executes jobs 0..n-1 on the bounded worker pool described by opts
// (Options.Jobs workers, Options.Context cancellation) and returns the
// first job failure, if any, instead of panicking. It exists for callers
// outside this package — cmd/acbfuzz's differential campaigns in
// particular — that want the same race-safe, deterministic fan-out the
// experiment sweeps use: each job writes only its own state, so results
// are independent of scheduling. A cancelled context is reported as an
// error wrapping ctx.Err() even when no job observed it, since skipped
// jobs leave their outputs unfilled.
func Pool(opts Options, n int, run func(i int)) (err error) {
	opts.fill()
	defer func() {
		if r := recover(); r != nil {
			err = r.(error) // runPool re-panics with a *poolError
		}
	}()
	runPool(&opts, n, run)
	if cerr := opts.Context.Err(); cerr != nil {
		return fmt.Errorf("experiments: pool cancelled: %w", cerr)
	}
	return nil
}

// runKey identifies a simulation by everything that decides its result:
// the workload (name and spec seed: every Build is the same image), the
// whole core configuration, the engine and the budget.
type runKey struct {
	workload string
	seed     uint64
	config   config.Core
	engine   Engine
	budget   int64
}

// key returns the memo key of w on e (with its predictor named).
func (o *Options) key(w *workload.Workload, e Engine) runKey {
	return runKey{w.Name, w.Spec.Seed, o.Config, e, o.Budget}
}

// run is a finished simulation: its result, and its scheme (nil for the
// baseline) for reports that read the scheme's own counters.
type run struct {
	res    ooo.Result
	scheme ooo.Scheme
}

// image is one workload's program and memory image, built at most once
// and shared by every simulation of the workload that uses it: each runs
// on a CloneCOW of the memory. The built memory owns no page, so
// concurrent clones of it only read it. In a grid with a dormant pair,
// pair is set while neither of the pair's runs on the workload is
// memoized, and prefix builds their shared prefix once, under the
// single-flight, so a failed or cancelled prefix fails both engines and is
// never cached.
type image struct {
	w    *workload.Workload
	once sync.Once
	prog []isa.Instruction
	mem  *isa.Memory

	pair   *pair
	prefix flight[struct{}, *prefix]
}

// build returns the image's program and frozen memory, building them
// first if no caller has, and counts the build in stats (nil = not
// counted).
func (im *image) build(stats *RunnerStats) ([]isa.Instruction, *isa.Memory) {
	im.once.Do(func() {
		start := time.Now()
		p, m := im.w.Build()
		im.prog, im.mem = p, m.CloneCOW() // the clone owns no page
		if stats != nil {
			stats.builds.Add(1)
			stats.build.Add(int64(time.Since(start)))
		}
	})
	return im.prog, im.mem
}

// program returns the image's program without building its memory: the
// built program if a simulation built the image, else the workload's
// program alone (workload.Workload.Program), which is not counted as a
// build. It must not run beside a build of im.
func (im *image) program() []isa.Instruction {
	if im.prog != nil {
		return im.prog
	}
	return im.w.Program()
}

// pair is a grid's baseline engine and its first dormant ACB engine, with
// the same predictor. ACB cannot predicate before Dormant() instructions
// retire (Dynamo's first epoch disables it), so until then its core runs
// exactly as the baseline core: the two simulations of a workload share
// that prefix. The prefix stops at = Dormant() − RetireWidth; RunContext
// stops at the first cycle boundary at or past it, at most Dormant() − 1,
// so every ShouldPredicate call of the prefix saw the dormant epoch.
type pair struct {
	base, acb Engine
	at        int64
}

// dormantPair returns the grid's dormant pair: its first ACB engine that
// is dormant for a while (core.ACB.Dormant), with a baseline engine of the
// same predictor. It returns nil when the grid has none, or when its runs
// end inside the prefix.
func (o *Options) dormantPair(engines []Engine) *pair {
	for _, a := range engines {
		if a.Scheme != SchemeACB {
			continue
		}
		at := core.New(a.ACB).Dormant() - int64(o.Config.RetireWidth)
		if at <= 0 {
			continue
		}
		if o.Budget <= at {
			return nil
		}
		a = a.named()
		for _, b := range engines {
			if b = b.named(); b.Scheme == SchemeBaseline && b.Predictor == a.Predictor {
				return &pair{base: b, acb: a, at: at}
			}
		}
		return nil
	}
	return nil
}

// prefix is a dormant pair's ACB core run to pair.at and the baseline core
// forked from it (ooo.Core.Fork). Each engine takes its own core once.
type prefix struct {
	mu        sync.Mutex
	base, acb *ooo.Core  // nil once taken
	scheme    ooo.Scheme // the ACB core's
	cycles    int64      // the prefix's, counted once
}

// take hands the pair's ACB engine (acb) or baseline engine its core and,
// for ACB, its scheme; a nil core means the engine runs from the start.
func (p *prefix) take(acb bool) (*ooo.Core, ooo.Scheme) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if acb {
		c := p.acb
		p.acb = nil
		return c, p.scheme
	}
	c := p.base
	p.base = nil
	return c, nil
}

// runPrefix runs img's pair's ACB engine to pair.at and forks the
// baseline from it. A program that halts inside the prefix leaves no core
// to continue, and both engines run from the start. The prefix's cycles
// and time count once, here. A failed or cancelled prefix panics with the
// wrapped error, as a simulation does.
func (o *Options) runPrefix(img *image) *prefix {
	start := time.Now()
	e := img.pair.acb
	newPredictor, newScheme, err := e.constructors(nil)
	if err != nil {
		panic(err)
	}
	prog, m := img.build(o.Stats)
	p := &prefix{scheme: newScheme()}
	c := ooo.NewWithMemory(o.Config, prog, newPredictor(), p.scheme, m.CloneCOW())
	c.EnableCPIStack()
	res, err := c.RunContext(o.Context, img.pair.at)
	if err != nil {
		panic(fmt.Errorf("experiments: %s/%s/%s prefix: %w", img.w.Name, e.Predictor, res.Scheme, err))
	}
	if !res.Halted {
		p.base, p.acb = c.Fork(nil), c
		p.cycles = res.Cycles
	}
	if o.Stats != nil {
		if !res.Halted {
			o.Stats.prefixes.Add(1)
			o.Stats.prefixCycles.Add(res.Cycles)
		}
		o.Stats.sim.Add(int64(time.Since(start)))
		o.Stats.cycles.Add(res.Cycles)
	}
	return p
}

// simulate is the one run path: every simulation of every experiment
// runs a workload on engine e here, through the Options' memo, so a
// simulation already run (or running) under the same key is not run
// again. A miss takes its core from the image's shared prefix when e is
// one of the image's dormant pair, building the prefix if the partner has
// not; otherwise it builds img unless another simulation has, builds the
// engine and its core on a CloneCOW of the image. It runs the core to the
// budget under o.Context and counts the run's cycles, CPI stack and
// progress. A failed or cancelled run panics with the wrapped error, which
// runPool re-raises and Run recovers, so a cancellation stays errors.Is-able.
func (o *Options) simulate(img *image, e Engine) run {
	e = e.named()
	w := img.w
	return o.memo.runs.do(o.key(w, e), func() run {
		// The whole computation is simulation time, as it is pool wall
		// time: a serial run's effective speedup reads 1. A shared prefix
		// counts once, in runPrefix, so the wait for it does not count.
		start := time.Now()
		newPredictor, newScheme, err := e.constructors(func() []dmp.Candidate {
			return o.memo.profiles.do(profileKey{w.Name, w.Spec.Seed}, func() []dmp.Candidate { return profile(w) })
		})
		if err != nil {
			panic(err)
		}
		var c *ooo.Core
		var scheme ooo.Scheme
		var shared int64 // the prefix's cycles, counted in runPrefix
		if pr := img.pair; pr != nil && (e == pr.base || e == pr.acb) {
			wait := time.Now()
			p := img.prefix.do(struct{}{}, func() *prefix { return o.runPrefix(img) })
			start = start.Add(time.Since(wait))
			if c, scheme = p.take(e == pr.acb); c != nil {
				shared = p.cycles
			}
		}
		if c == nil {
			p, m := img.build(o.Stats)
			scheme = newScheme()
			c = ooo.NewWithMemory(o.Config, p, newPredictor(), scheme, m.CloneCOW())
			c.EnableCPIStack()
		}
		res, err := c.RunContext(o.Context, o.Budget)
		if err != nil {
			panic(fmt.Errorf("experiments: %s/%s/%s: %w", w.Name, e.Predictor, res.Scheme, err))
		}
		if o.Stats != nil {
			o.Stats.sims.Add(1)
			o.Stats.sim.Add(int64(time.Since(start)))
			o.Stats.cycles.Add(res.Cycles - shared)
		}
		if o.CPIStats != nil {
			o.CPIStats.Add(res.Scheme, res.CPI)
		}
		o.Logf("%-12s %-10s %-18s IPC=%.3f flushes/k=%.2f", w.Name, e.Predictor, res.Scheme, res.IPC, res.FlushPerKilo())
		return run{res, scheme}
	})
}

// runGrid simulates every workload on every engine on the worker pool and
// returns the runs indexed [workload][engine]. A workload's engines share
// one image, built by the first of them to miss the memo and dropped
// after the last, so no more images are alive than workloads in flight.
// A grid with a dormant pair shares each workload's prefix between the
// pair's two runs, unless one of them is memoized already; the prefix is
// dropped with the image.
func runGrid(opts *Options, ws []workload.Workload, engines []Engine) [][]run {
	ne := len(engines)
	pr := opts.dormantPair(engines)
	images := make([]*image, len(ws))
	left := make([]atomic.Int32, len(ws)) // engines yet to finish
	for i := range ws {
		images[i] = &image{w: &ws[i]}
		if pr != nil && !opts.memo.runs.has(opts.key(&ws[i], pr.base)) &&
			!opts.memo.runs.has(opts.key(&ws[i], pr.acb)) {
			images[i].pair = pr
		}
		left[i].Store(int32(ne))
	}
	flat := make([]run, len(ws)*ne)
	runPool(opts, len(flat), func(i int) {
		wi := i / ne
		defer func() {
			if left[wi].Add(-1) == 0 {
				images[wi] = nil
			}
		}()
		flat[i] = opts.simulate(images[wi], engines[i%ne])
	})
	grid := make([][]run, len(ws))
	for i := range grid {
		grid[i] = flat[i*ne : (i+1)*ne]
	}
	return grid
}

// sweep runs every workload under each scheme variant on the worker pool
// and returns per-workload results keyed by scheme.
func sweep(opts Options, kinds ...SchemeKind) map[string]map[SchemeKind]ooo.Result {
	opts.fill()
	engines := make([]Engine, len(kinds))
	for i, k := range kinds {
		engines[i] = catalogue[k]
	}
	grid := runGrid(&opts, opts.Workloads, engines)
	out := make(map[string]map[SchemeKind]ooo.Result, len(opts.Workloads))
	for wi, runs := range grid {
		res := make(map[SchemeKind]ooo.Result, len(kinds))
		for ki, k := range kinds {
			res[k] = runs[ki].res
		}
		out[opts.Workloads[wi].Name] = res
	}
	return out
}

// speedup returns b.IPC / a.IPC.
func speedup(a, b ooo.Result) float64 { return stats.Ratio(b.IPC, a.IPC) }

// geomeanSpeedup aggregates over workloads. It iterates in sorted name
// order so the floating-point accumulation — and with it the printed
// geomean — is deterministic across runs and job counts.
func geomeanSpeedup(results map[string]map[SchemeKind]ooo.Result, base, other SchemeKind) float64 {
	names := make([]string, 0, len(results))
	for n := range results {
		names = append(names, n)
	}
	sort.Strings(names)
	xs := make([]float64, 0, len(names))
	for _, n := range names {
		r := results[n]
		xs = append(xs, speedup(r[base], r[other]))
	}
	return stats.Geomean(xs)
}
