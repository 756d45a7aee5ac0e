// Package sample implements SMARTS-style sampled simulation: instead of
// running every instruction through the cycle-accurate core, a run is
// partitioned into fast-forward / warm-up / measure intervals. The
// fast-forward phase executes on the trusted internal/isa functional
// emulator (the difftest oracle), which checkpoints architectural state at
// each window start, while two more goroutines functionally warm the
// branch predictor with every resolved branch outcome and, continuously,
// a cache hierarchy with every load/store address (each window receives
// clones of the warmed predictor and tag state). Each window is
// an independent job — a detailed core restored from its checkpoint
// (ooo.NewFromCheckpoint), a detailed-but-unmeasured warm-up to hide the
// remaining cold start, and a measured span — so windows fan out over the
// experiments worker pool (and through it the acbd cluster). A window
// runs as soon as its state exists, beside the rest of the fast-forward,
// and drops that state when it finishes, so a run holds only the windows
// in flight, however many it has. Per-window CPIs aggregate into a point
// estimate with normal-approximation confidence intervals.
//
// Approximations (see docs/SAMPLING.md): wrong-path history and cache
// pollution are not modeled during warming, and predication schemes start
// each window with cold learning state — sampled CPI is therefore
// validated against full runs for the baseline core, with scheme warming
// an open item.
package sample

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"

	"acb/internal/bpu"
	"acb/internal/config"
	"acb/internal/isa"
	"acb/internal/mem"
	"acb/internal/ooo"
)

// Plan describes the interval structure of a sampled run, in retired
// instructions. Every Interval instructions a window opens: the detailed
// core warms (unmeasured) for Warmup instructions and then measures
// Measure instructions; everything else is fast-forwarded functionally.
type Plan struct {
	// Interval is the sampling period: window k starts at
	// Offset + k*Interval.
	Interval int64
	// Offset positions the first window inside the first interval. The
	// zero value means Interval/2 — centering windows keeps the program's
	// cold-start transient out of window 0, which would otherwise carry
	// 1/n of the sample weight for a phase the full run amortizes over
	// the whole budget. Negative means start at instruction 0.
	Offset int64
	// Warmup is the detailed-but-unmeasured span at the head of each
	// window (hides the cold pipeline/cache transient of a checkpointed
	// start).
	Warmup int64
	// Measure is the measured span per window.
	Measure int64
}

// DefaultPlan returns the interval scheme used by the sampled experiments:
// a 7% detailed fraction (2k warm-up + 5k measured every 100k) that keeps
// CPI error within the documented bound on the workload suite.
func DefaultPlan() Plan {
	return Plan{Interval: 100_000, Warmup: 2_000, Measure: 5_000}
}

// PlanForBudget scales the interval scheme to the run length: the interval
// is budget/20 (so a run always yields ~20 windows — enough for the CI95
// machinery to mean something) clamped to [15k, 500k]. The warm-up stays
// at DefaultPlan's 2k regardless of interval — shorter warm-ups leave a
// measurable cold-start bias, and longer ones buy nothing once caches and
// pipeline have converged — and the measured span is interval/20 clamped
// to [3k, 5k]: below 3k per-window noise dominates, and past 5k extra
// width buys little because the estimate's variance is driven by the
// window count (see the calibration sweep in docs/SAMPLING.md). Short
// budgets therefore trade speedup for accuracy (detailed fraction 33% at
// the 15k floor, 7% at 100k, 1.4% at the 500k cap).
func PlanForBudget(budget int64) Plan {
	interval := budget / 20
	if interval < 15_000 {
		interval = 15_000
	}
	if interval > 500_000 {
		interval = 500_000
	}
	measure := interval / 20
	if measure < 3_000 {
		measure = 3_000
	}
	if measure > 5_000 {
		measure = 5_000
	}
	return Plan{Interval: interval, Warmup: 2_000, Measure: measure}
}

func (p *Plan) fill() error {
	if p.Interval <= 0 {
		p.Interval = DefaultPlan().Interval
	}
	if p.Measure <= 0 {
		p.Measure = DefaultPlan().Measure
	}
	if p.Warmup < 0 {
		p.Warmup = 0
	}
	if p.Offset == 0 {
		p.Offset = p.Interval / 2
	} else if p.Offset < 0 {
		p.Offset = 0
	}
	if p.Warmup+p.Measure > p.Interval {
		return fmt.Errorf("sample: warmup %d + measure %d exceed interval %d", p.Warmup, p.Measure, p.Interval)
	}
	return nil
}

// FirstStart returns the instruction index where the plan's first window
// begins (after defaulting), so callers can tell whether a program is long
// enough to yield any window at all.
func (p Plan) FirstStart() int64 {
	if err := p.fill(); err != nil {
		return 0
	}
	return p.Offset
}

// PoolFunc fans jobs 0..n-1 out to workers; each job writes only its own
// slot, so any implementation that runs every index exactly once is safe.
// The experiments package's Pool matches this shape — wire it in to reuse
// the bounded worker pool (and its runner accounting); the default is a
// serial loop, which callers already inside a pool job should keep.
type PoolFunc func(n int, run func(i int)) error

// Options configures a sampled run.
type Options struct {
	// Budget is the retired-instruction budget (like ooo.Core.Run's); the
	// run covers min(Budget, instructions-to-halt) instructions.
	Budget int64
	// Config is the core configuration (zero = config.Skylake()).
	Config config.Core
	// NewPredictor builds the predictor warmed during fast-forward and
	// cloned per window; it must return a bpu.Cloner (all built-in
	// predictors are). Default: TAGE.
	NewPredictor func() bpu.Predictor
	// NewScheme builds a fresh predication scheme per window (nil = plain
	// speculation baseline). Windows do not share scheme state.
	NewScheme func() ooo.Scheme
	// Verify diffs each window's end-of-window architectural state (regs +
	// committed memory) against a functional reference advanced to the
	// same retired count, recording any divergence in Window.BoundaryDiff.
	Verify bool
	// Pool runs the window jobs (see PoolFunc). Nil = serial. Run calls
	// it at once, with one job per planned window; job i waits until
	// window i's state is ready, and the job of a window the run never
	// reaches returns with no result when the fast-forward ends.
	Pool PoolFunc
	// Context cancels the run cooperatively.
	Context context.Context
}

func (o *Options) fill() {
	if o.Budget <= 0 {
		o.Budget = 400_000
	}
	if o.Config.ROBSize == 0 {
		o.Config = config.Skylake()
	}
	if o.NewPredictor == nil {
		o.NewPredictor = func() bpu.Predictor { return bpu.NewTAGE(bpu.DefaultTAGEConfig()) }
	}
	if o.Pool == nil {
		o.Pool = func(n int, run func(i int)) error {
			for i := 0; i < n; i++ {
				run(i)
			}
			return nil
		}
	}
	if o.Context == nil {
		o.Context = context.Background()
	}
}

// Window is one measured interval of a sampled run.
type Window struct {
	Index int
	// Start is the retired-instruction index where the detailed warm-up
	// begins (k*Interval).
	Start int64
	// Warmup and Measure are the planned spans, clipped at program end.
	Warmup  int64
	Measure int64
	// Result holds the measured span's statistics (deltas; see
	// ooo.Core.RunWindow).
	Result ooo.Result
	// CPI is Result.Cycles / Result.Retired.
	CPI float64
	// BoundaryDiff is non-empty when Options.Verify found the window's
	// end-of-window architectural state diverging from the functional
	// reference.
	BoundaryDiff string
}

// Estimate is the outcome of a sampled run.
type Estimate struct {
	Windows []Window
	// TotalInstrs is the functional instruction count the run covers
	// (min(budget, instructions-to-halt)).
	TotalInstrs int64
	Halted      bool
	// MeasuredInstrs / MeasuredCycles sum the measured spans.
	MeasuredInstrs int64
	MeasuredCycles int64
	// CPI is the instruction-weighted point estimate over windows.
	CPI float64
	// CPIStdErr is the standard error of the per-window CPI mean, and CI95
	// its 1.96σ half-width — the normal-approximation 95% confidence
	// interval on CPI (0 when fewer than 2 windows).
	CPIStdErr float64
	CI95      float64
	// EstCycles extrapolates total cycles: CPI * TotalInstrs.
	EstCycles int64
	// BoundaryFailures counts windows whose BoundaryDiff is non-empty.
	BoundaryFailures int
}

// window is one planned window: its placement, and the fast-forward's
// products that its job reads once ready is closed.
type window struct {
	start   int64
	warmup  int64
	measure int64 // clipped at the run's end for the last window reached
	// ready is closed when the fields below are final: by the cache
	// warmer once the emulate stage has passed the window's end, or, for
	// the last window reached and every window the run never reaches, when
	// the fast-forward ends.
	ready chan struct{}
	ckpt  *isa.Checkpoint // written by the emulate stage
	// pred and hier are the warmed clones, written by the predictor and
	// the cache warmer; pred is nil for a window that is dropped or never
	// reached, which its job skips.
	pred bpu.Predictor
	hier *mem.Hierarchy
}

// planWindows returns the plan's windows below budget, each not yet
// ready.
func planWindows(plan Plan, budget int64) []window {
	var wins []window
	for start := plan.Offset; start < budget; start += plan.Interval {
		wins = append(wins, window{start: start, warmup: plan.Warmup, measure: plan.Measure,
			ready: make(chan struct{})})
	}
	return wins
}

// Run performs a sampled simulation of the program and returns the CPI
// estimate. The image is cloned, never mutated.
func Run(prog []isa.Instruction, image *isa.Memory, plan Plan, opts Options) (*Estimate, error) {
	if err := plan.fill(); err != nil {
		return nil, err
	}
	opts.fill()
	if image == nil {
		image = isa.NewMemory()
	}
	pred := opts.NewPredictor()
	if _, ok := pred.(bpu.Cloner); !ok {
		return nil, fmt.Errorf("sample: predictor %s does not support cloning (bpu.Cloner)", pred.Name())
	}

	// The functional fast-forward runs beside the detailed windows: every
	// planned window is a job from the start, which waits until its state
	// is ready, runs, and drops that state. Each job writes only its own
	// result/error slot, so any pool that runs every index exactly once is
	// race-free; the fast-forward never waits for a job.
	ff := startFastForward(prog, image, plan, &opts, pred)
	defer ff.stop()
	wins := ff.wins
	results := make([]Window, len(wins))
	errs := make([]error, len(wins))
	poolErr := opts.Pool(len(wins), func(i int) {
		w := &wins[i]
		<-w.ready
		if w.pred == nil {
			return
		}
		var scheme ooo.Scheme
		if opts.NewScheme != nil {
			scheme = opts.NewScheme()
		}
		c := ooo.NewFromCheckpoint(opts.Config, prog, w.pred, scheme, w.ckpt, w.hier)
		res, err := c.RunWindow(opts.Context, w.warmup, w.measure)
		if err != nil {
			errs[i] = fmt.Errorf("sample: window %d (start %d): %w", i, w.start, err)
			return
		}
		out := Window{Index: i, Start: w.start, Warmup: w.warmup, Measure: w.measure, Result: res}
		if res.Retired > 0 {
			out.CPI = float64(res.Cycles) / float64(res.Retired)
		}
		if opts.Verify {
			out.BoundaryDiff = boundaryDiff(prog, w.ckpt, c, &res)
		}
		results[i] = out
		w.ckpt, w.pred, w.hier = nil, nil, nil
	})
	if poolErr != nil {
		ff.cancel()
	}
	kept, total, halted, err := ff.join()
	if poolErr != nil {
		return nil, poolErr
	}
	if err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if kept == 0 {
		return nil, fmt.Errorf("sample: no measurable window in %d instructions (interval %d, warmup %d)",
			total, plan.Interval, plan.Warmup)
	}
	return aggregate(results[:kept], total, halted), nil
}

// Fast-forward stage sizing, measured with BenchmarkRun on a 2-CPU host.
const (
	// batchEvents is the number of events per hand-off: a few thousand
	// emulated instructions, so each stage works for tens of microseconds
	// between hand-offs and waking the next goroutine is a small part of
	// that. 256-event batches gave back about half of the two-stage gain;
	// 4096 were no faster.
	batchEvents = 1024
	// ringBatches is the number of batches in circulation (16 KiB each):
	// one being filled, the rest queued for or in the warmers. The slack
	// lets each stage run on through a stall of another, such as the
	// clones at a window marker or a window job holding a CPU, and
	// through stretches where one stage is the slower. With 2 the stages
	// ran in lock-step. With three stages on two CPUs depth pays: on
	// sampled-long's mix the CPUs were busy 1.80 of 2 inside sample.Run
	// with 4 batches, 1.84 with 8, 1.90 with 16 and 1.93 with 32.
	ringBatches = 32
)

// batch is one hand-off down the fast-forward's pipeline: events in
// program order, then, if mark is set, the marker of the next window, at
// which each warmer clones its state into that window, or, if ready is
// set, the end of the last window marked, which the cache warmer makes
// ready.
type batch struct {
	events      []isa.Event
	mark, ready bool
}

// warmStage is the fast-forward's warming: two goroutines chained behind
// the emulate stage, which own disjoint state. The predictor warmer
// applies each batch's branch outcomes to the warming predictor, clones
// it into the window at a marker and passes the batch on to the cache
// warmer. The cache warmer applies the batch's loads and stores to the
// warming cache hierarchy, clones it into the window at a marker, makes
// the window ready at a ready flag and returns the batch to the emulate
// stage. Both see every batch, in order, so each window gets the state
// one serial pass would give it. Batches circulate through full, warmed
// and free, each of which holds every batch at once, so no stage ever
// blocks on a send.
type warmStage struct {
	full, free  chan *batch
	pred, cache warmer
	readied     int // windows 0..readied-1 are ready; read after cache.done
}

// warmer is one warming goroutine.
type warmer struct {
	done chan struct{} // closed when the goroutine exits
	// Read after done.
	marks    int // windows 0..marks-1 have this warmer's clone
	panicked any
}

// startWarm starts the two warmers, which own pred (a bpu.Cloner) and
// hier until join returns, and skip every batch once ctx is done. At marker k each fills its part of wins[k],
// and at the ready flag that follows the cache warmer makes wins[k]
// ready: the emulate stage has passed the window's end, so it can be
// neither clipped nor dropped, and the predictor warmer has passed its
// marker.
func startWarm(ctx context.Context, pred bpu.Predictor, hier *mem.Hierarchy, wins []window) *warmStage {
	w := &warmStage{
		full:  make(chan *batch, ringBatches),
		free:  make(chan *batch, ringBatches),
		pred:  warmer{done: make(chan struct{})},
		cache: warmer{done: make(chan struct{})},
	}
	for i := 0; i < ringBatches; i++ {
		w.free <- &batch{events: make([]isa.Event, 0, batchEvents)}
	}
	warmed := make(chan *batch, ringBatches)
	go func() {
		// However the predictor warmer ends, the cache warmer then drains
		// what it was passed and exits.
		defer close(warmed)
		w.pred.run(ctx, w.full, warmed, func(b *batch, k int) {
			warmBranches(pred, b.events)
			if b.mark {
				wins[k].pred = pred.(bpu.Cloner).Clone()
			}
		})
	}()
	go w.cache.run(ctx, warmed, w.free, func(b *batch, k int) {
		warmAccesses(hier, b.events)
		if b.mark {
			wins[k].hier = hier.Clone()
		}
		if b.ready {
			close(wins[w.readied].ready)
			w.readied++
		}
	})
	return w
}

// run is a warmer's loop: it applies each batch from in, handing apply
// the index of the window a marker in the batch is for, and passes the
// batch on to out, until in is closed or apply panics. Once ctx is done
// it skips the rest, which would otherwise cost up to ringBatches batches
// of warming in a cancelled run: each warmer applies a prefix of the
// batches, and the cache warmer's is never longer than the predictor
// warmer's.
func (w *warmer) run(ctx context.Context, in <-chan *batch, out chan<- *batch, apply func(b *batch, k int)) {
	defer close(w.done)
	defer func() { w.panicked = recover() }()
	for b := range in {
		if ctx.Err() != nil {
			continue
		}
		apply(b, w.marks)
		if b.mark {
			w.marks++
		}
		// Yield after every batch, so that a window job queued on this
		// goroutine's processor runs now: the one just made ready, or one
		// the runtime queued behind this goroutine (after a GC assist,
		// say). The stages ready each other ahead of a job and rarely
		// block, so the job would otherwise wait up to a scheduler time
		// slice (10 ms) while windows pile up (5-8 of 20 alive at once on
		// one CPU in TestFewWindowsAlive with no yield).
		runtime.Gosched()
		out <- b
	}
}

// warmBranches trains pred with the events' branch outcomes, in program
// order.
func warmBranches(pred bpu.Predictor, events []isa.Event) {
	for _, e := range events {
		if e.Op == isa.Br {
			bpu.Warm(pred, uint64(e.Addr), e.Taken)
		}
	}
}

// warmAccesses drives the events' loads and stores through hier, in
// program order.
func warmAccesses(hier *mem.Hierarchy, events []isa.Event) {
	for _, e := range events {
		switch e.Op {
		case isa.Br:
		case isa.Load:
			hier.LoadLatency(e.Addr)
		default:
			hier.StoreCommit(e.Addr)
		}
	}
}

// handOff queues b (if non-nil) for the warmers and returns an empty
// batch, or an error if ctx is done or a warmer has died (join re-raises
// its panic). The cache warmer, the last stage, exits whenever the
// predictor warmer does.
func (w *warmStage) handOff(ctx context.Context, b *batch) (*batch, error) {
	if b != nil {
		w.full <- b
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	select {
	case b := <-w.free:
		b.events, b.mark, b.ready = b.events[:0], false, false
		return b, nil
	case <-w.cache.done:
		return nil, errors.New("sample: warm stage stopped")
	case <-ctx.Done(): // the warmers return no batch once ctx is done
		return nil, ctx.Err()
	}
}

// join ends the event stream and waits for both warmers to exit. A
// warmer's panic is re-raised on the caller's goroutine, the predictor
// warmer's first.
func (w *warmStage) join() {
	close(w.full)
	<-w.pred.done
	<-w.cache.done
	for _, p := range [...]any{w.pred.panicked, w.cache.panicked} {
		if p != nil {
			panic(p)
		}
	}
}

// fastForward is phase 1, the functional fast-forward, running on its own
// goroutines beside the window jobs: the emulate stage (emulate) and the
// two warmers (startWarm).
type fastForward struct {
	wins   []window
	cancel context.CancelFunc
	done   chan struct{} // closed once every stage has exited and every window is ready
	// Read after done.
	kept     int   // windows 0..kept-1 have state; the rest never run
	pos      int64 // the run's functional extent
	halted   bool
	err      error
	panicked any // any stage's panic
}

// startFastForward starts the fast-forward over the plan's windows. Its
// goroutines stop on their own at the run's end; stop ends them early.
func startFastForward(prog []isa.Instruction, image *isa.Memory, plan Plan, opts *Options,
	pred bpu.Predictor) *fastForward {
	ctx, cancel := context.WithCancel(opts.Context)
	f := &fastForward{wins: planWindows(plan, opts.Budget), cancel: cancel, done: make(chan struct{})}
	arch := isa.NewArchState(image.CloneCOW())
	warm := startWarm(ctx, pred, mem.NewHierarchy(opts.Config.Mem), f.wins)
	go func() {
		defer close(f.done)
		defer f.release(warm)
		defer func() { f.panicked = recover() }()
		defer func() {
			warm.join()
			// A cancel after the emulate stage's last check may still have
			// made the warmers skip windows.
			if f.err == nil && ctx.Err() != nil {
				f.err = fmt.Errorf("sample: fast-forward stopped at its end: %w", ctx.Err())
			}
		}()
		f.pos, f.halted, f.err = emulate(ctx, prog, arch, f.wins, opts.Budget, warm)
	}()
	return f
}

// release runs once every stage has exited and makes every window not
// yet ready ready. The last window the cache warmer filled, unless it is
// ready already, runs only if the fast-forward finished and the window
// has a measured span before the run's end, where it is clipped; the rest
// never run, and drop what state they have (a lone predictor clone,
// after a cache-warmer panic or a cancel).
func (f *fastForward) release(warm *warmStage) {
	marks := warm.cache.marks
	f.kept = marks
	if marks > warm.readied {
		w := &f.wins[marks-1]
		switch {
		case f.err != nil || f.panicked != nil || w.start+w.warmup >= f.pos:
			f.kept--
		case w.start+w.warmup+w.measure > f.pos:
			w.measure = f.pos - w.start - w.warmup
		}
	}
	for i := warm.readied; i < len(f.wins); i++ {
		w := &f.wins[i]
		if i >= f.kept {
			w.ckpt, w.pred, w.hier = nil, nil, nil
		}
		close(w.ready)
	}
}

// join waits for the fast-forward to end and returns how many windows
// have state, the run's functional extent and whether it halted. A panic
// in any stage is re-raised here, on the caller's goroutine, so a
// recovering caller (experiments.Run) reports it as a job error.
func (f *fastForward) join() (kept int, pos int64, halted bool, err error) {
	<-f.done
	if f.panicked != nil {
		panic(f.panicked)
	}
	return f.kept, f.pos, f.halted, f.err
}

// stop cancels the fast-forward and waits for its goroutines to exit.
func (f *fastForward) stop() {
	f.cancel()
	<-f.done
}

// emulate is the fast-forward's first stage: one functional pass over the
// run. It steps arch, writes every conditional-branch outcome and
// load/store address into batches for the warmers, and at each window
// start takes the architectural checkpoint and ends the batch with the
// window's marker. At the end of every window but the last, unless the
// run ends first, it ends the batch again, so that the cache warmer makes
// the window ready; no later window starts before it. Each warmer applies
// its events in the order a serial pass would, so every window receives
// the same predictor and cache state. emulate returns the run's
// functional extent and whether it halted.
func emulate(ctx context.Context, prog []isa.Instruction, arch *isa.ArchState, wins []window, budget int64,
	warm *warmStage) (pos int64, halted bool, err error) {
	stopped := func(err error) error {
		return fmt.Errorf("sample: fast-forward stopped at instruction %d: %w", pos, err)
	}
	b, err := warm.handOff(ctx, nil)
	if err != nil {
		return 0, false, stopped(err)
	}
	// runTo steps to instruction target or the halt, handing on full
	// batches; end hands on the current batch, ending it with flag.
	runTo := func(target int64) error {
		for pos < target && !halted {
			var steps int64
			b.events, steps, halted = arch.RunEvents(prog, target-pos, b.events)
			pos += steps
			if len(b.events) == cap(b.events) {
				if b, err = warm.handOff(ctx, b); err != nil {
					return err
				}
			}
		}
		return nil
	}
	end := func(flag *bool) error {
		*flag = true
		b, err = warm.handOff(ctx, b)
		return err
	}
	for k := range wins {
		w := &wins[k]
		if err := runTo(w.start); err != nil {
			return pos, false, stopped(err)
		}
		if halted {
			break
		}
		w.ckpt = arch.Checkpoint(pos)
		if err := end(&b.mark); err != nil {
			return pos, false, stopped(err)
		}
		// The last window becomes ready when the fast-forward ends, and
		// warming needs no event past its start.
		if k == len(wins)-1 {
			break
		}
		if err := runTo(w.start + w.warmup + w.measure); err != nil {
			return pos, false, stopped(err)
		}
		if halted {
			break
		}
		if err := end(&b.ready); err != nil {
			return pos, false, stopped(err)
		}
	}
	// Finish the functional pass to learn the run's true extent; warming
	// needs none of it.
	if !halted && pos < budget {
		var steps int64
		steps, halted = arch.Run(prog, budget-pos)
		pos += steps
	}
	return pos, halted, nil
}

// boundaryDiff replays the functional reference from the window's
// checkpoint to the core's exact retired count and reports any
// architectural divergence (registers, then committed memory). Retirement
// counts architecturally-useful instructions only, so the functional
// reference lands on the same instruction even under predication schemes.
func boundaryDiff(prog []isa.Instruction, ckpt *isa.Checkpoint, c *ooo.Core, res *ooo.Result) string {
	ref := ckpt.Restore()
	ref.Run(prog, c.Retired())
	for r := 0; r < isa.NumRegs; r++ {
		if res.FinalRegs[r] != ref.Regs[r] {
			return fmt.Sprintf("r%d = %#x, functional reference has %#x (boundary %d)",
				r, res.FinalRegs[r], ref.Regs[r], ckpt.Retired+c.Retired())
		}
	}
	if diffs := c.CommitMemory().DiffWords(ref.Mem, 3); len(diffs) > 0 {
		var d []string
		for _, w := range diffs {
			d = append(d, fmt.Sprintf("[%#x]=%#x want %#x", w.Addr, w.A, w.B))
		}
		return fmt.Sprintf("memory diverges at boundary %d: %s", ckpt.Retired+c.Retired(), strings.Join(d, ", "))
	}
	return ""
}

// aggregate folds window results into the point estimate.
func aggregate(windows []Window, total int64, halted bool) *Estimate {
	est := &Estimate{Windows: windows, TotalInstrs: total, Halted: halted}
	cpis := make([]float64, 0, len(windows))
	for i := range windows {
		w := &windows[i]
		est.MeasuredInstrs += w.Result.Retired
		est.MeasuredCycles += w.Result.Cycles
		if w.Result.Retired > 0 {
			cpis = append(cpis, w.CPI)
		}
		if w.BoundaryDiff != "" {
			est.BoundaryFailures++
		}
	}
	if est.MeasuredInstrs > 0 {
		est.CPI = float64(est.MeasuredCycles) / float64(est.MeasuredInstrs)
	}
	if n := len(cpis); n >= 2 {
		mean := 0.0
		for _, x := range cpis {
			mean += x
		}
		mean /= float64(n)
		varSum := 0.0
		for _, x := range cpis {
			varSum += (x - mean) * (x - mean)
		}
		sd := math.Sqrt(varSum / float64(n-1))
		est.CPIStdErr = sd / math.Sqrt(float64(n))
		est.CI95 = 1.96 * est.CPIStdErr
	}
	est.EstCycles = int64(est.CPI * float64(total))
	return est
}

// CPIErrorPct returns the signed relative error of the sampled CPI against
// a full-run CPI, in percent.
func (e *Estimate) CPIErrorPct(fullCPI float64) float64 {
	if fullCPI == 0 {
		return 0
	}
	return (e.CPI - fullCPI) / fullCPI * 100
}
