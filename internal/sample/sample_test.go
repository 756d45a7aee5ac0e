package sample

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"acb/internal/bpu"
	"acb/internal/config"
	"acb/internal/core"
	"acb/internal/isa"
	"acb/internal/ooo"
	"acb/internal/prog"
	"acb/internal/workload"
)

func buildWorkload(t testing.TB, name string) ([]isa.Instruction, *isa.Memory) {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatalf("workload %s: %v", name, err)
	}
	return w.Build()
}

func fullCPI(t *testing.T, prog []isa.Instruction, image *isa.Memory, budget int64) float64 {
	t.Helper()
	pred := bpu.NewTAGE(bpu.DefaultTAGEConfig())
	c := ooo.NewWithMemory(config.Skylake(), prog, pred, nil, image.Clone())
	res, err := c.Run(budget)
	if err != nil {
		t.Fatalf("full run: %v", err)
	}
	return float64(res.Cycles) / float64(res.Retired)
}

func TestSampledCPIWithinBound(t *testing.T) {
	for _, name := range []string{"perlbench", "gcc", "mcf"} {
		t.Run(name, func(t *testing.T) {
			prog, image := buildWorkload(t, name)
			budget := int64(300_000)
			full := fullCPI(t, prog, image, budget)

			plan := Plan{Interval: 30_000, Warmup: 2_000, Measure: 5_000}
			est, err := Run(prog, image, plan, Options{Budget: budget, Verify: true})
			if err != nil {
				t.Fatalf("sampled run: %v", err)
			}
			if est.BoundaryFailures != 0 {
				for _, w := range est.Windows {
					if w.BoundaryDiff != "" {
						t.Errorf("window %d (start %d): %s", w.Index, w.Start, w.BoundaryDiff)
					}
				}
				t.Fatalf("%d window-boundary architectural diffs", est.BoundaryFailures)
			}
			if est.TotalInstrs != budget && !est.Halted {
				t.Fatalf("TotalInstrs = %d, want %d (or halt)", est.TotalInstrs, budget)
			}
			errPct := est.CPIErrorPct(full)
			if errPct < 0 {
				errPct = -errPct
			}
			t.Logf("%s: full CPI %.4f, sampled %.4f ± %.4f (%d windows), err %.2f%%",
				name, full, est.CPI, est.CI95, len(est.Windows), errPct)
			if errPct > 10 {
				t.Errorf("CPI error %.2f%% exceeds 10%% sanity bound", errPct)
			}
		})
	}
}

// buildHaltingLoop assembles a branchy loop that halts after roughly
// iters*8 instructions, for tests that need a program with a real end.
func buildHaltingLoop(iters int64) ([]isa.Instruction, *isa.Memory) {
	b := prog.NewBuilder()
	b.MovI(isa.R1, iters)
	b.MovI(isa.R3, 0)
	b.MovI(isa.R7, 0)
	b.Label("loop")
	b.AndI(isa.R4, isa.R3, 7)
	b.Brz(isa.R4, "skip")
	b.AddI(isa.R7, isa.R7, 3)
	b.Label("skip")
	b.AddI(isa.R3, isa.R3, 1)
	b.Sub(isa.R8, isa.R3, isa.R1)
	b.Brnz(isa.R8, "loop")
	b.Halt()
	return b.MustBuild(), isa.NewMemory()
}

func TestWindowsClipAtHalt(t *testing.T) {
	prog, image := buildHaltingLoop(8_000) // halts around 50k instructions
	// Budget far beyond the program so the run halts; windows past the
	// halt must be dropped, the straddling one clipped.
	plan := Plan{Interval: 10_000, Warmup: 500, Measure: 2_000}
	est, err := Run(prog, image, plan, Options{Budget: 100_000_000, Verify: true})
	if err != nil {
		t.Fatalf("sampled run: %v", err)
	}
	if !est.Halted {
		t.Fatalf("expected halt within budget")
	}
	if est.BoundaryFailures != 0 {
		t.Fatalf("%d boundary failures on halting run", est.BoundaryFailures)
	}
	for _, w := range est.Windows {
		if w.Start+w.Warmup+w.Measure > est.TotalInstrs {
			t.Errorf("window %d spans [%d,%d) past program end %d",
				w.Index, w.Start, w.Start+w.Warmup+w.Measure, est.TotalInstrs)
		}
	}
}

func TestParallelPoolMatchesSerial(t *testing.T) {
	prog, image := buildWorkload(t, "gcc")
	plan := Plan{Interval: 20_000, Warmup: 1_000, Measure: 3_000}
	opts := Options{Budget: 200_000}

	serial, err := Run(prog, image, plan, opts)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}

	opts.Pool = func(n int, run func(i int)) error {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) { defer wg.Done(); run(i) }(i)
		}
		wg.Wait()
		return nil
	}
	par, err := Run(prog, image, plan, opts)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}

	if serial.CPI != par.CPI || serial.MeasuredCycles != par.MeasuredCycles ||
		serial.MeasuredInstrs != par.MeasuredInstrs || len(serial.Windows) != len(par.Windows) {
		t.Fatalf("parallel pool changed results: serial CPI %.6f/%d cycles, parallel %.6f/%d",
			serial.CPI, serial.MeasuredCycles, par.CPI, par.MeasuredCycles)
	}
	for i := range serial.Windows {
		a, b := serial.Windows[i].Result, par.Windows[i].Result
		if a.Cycles != b.Cycles || a.Retired != b.Retired || a.Flushes != b.Flushes ||
			a.Mispredicts != b.Mispredicts || a.FinalRegs != b.FinalRegs {
			t.Errorf("window %d differs between serial and parallel pools", i)
		}
	}
}

func TestPlanValidation(t *testing.T) {
	prog, image := buildWorkload(t, "perlbench")
	_, err := Run(prog, image, Plan{Interval: 1_000, Warmup: 800, Measure: 500}, Options{})
	if err == nil || !strings.Contains(err.Error(), "exceed interval") {
		t.Fatalf("expected interval-validation error, got %v", err)
	}
}

func TestContextCancellation(t *testing.T) {
	prog, image := buildWorkload(t, "gcc")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(prog, image, DefaultPlan(), Options{Budget: 300_000, Context: ctx})
	if err == nil {
		t.Fatalf("expected cancellation error")
	}
}

// countingPredictor is a pass-through predictor that counts its Predict
// calls and calls onCall with each new count, and onClone at each Clone.
// Its clones are bare, so it counts only the fast-forward's warming.
type countingPredictor struct {
	bpu.Predictor
	calls   int
	onCall  func(n int)
	onClone func()
}

func (p *countingPredictor) Predict(pc uint64, taken bool) bpu.Prediction {
	p.calls++
	if p.onCall != nil {
		p.onCall(p.calls)
	}
	return p.Predictor.Predict(pc, taken)
}

func (p *countingPredictor) Clone() bpu.Predictor {
	if p.onClone != nil {
		p.onClone()
	}
	return p.Predictor.(bpu.Cloner).Clone()
}

// peakWindows records the peak number of windows alive at once in a
// sampled run: a window's state exists from the predictor clone made at
// its marker until its job finishes.
type peakWindows struct {
	cloned, finished atomic.Int64
	peak             int64 // written by the warm stage; read once Run returns
}

// options returns opts with a TAGE predictor whose clones are counted and
// a serial pool whose finished jobs are counted. The counts restart in
// NewPredictor, which Run calls once, before it starts any goroutine.
func (w *peakWindows) options(opts Options) Options {
	opts.NewPredictor = func() bpu.Predictor {
		w.cloned.Store(0)
		w.finished.Store(0)
		return &countingPredictor{Predictor: bpu.NewTAGE(bpu.DefaultTAGEConfig()), onClone: func() {
			if n := w.cloned.Add(1) - w.finished.Load(); n > w.peak {
				w.peak = n
			}
		}}
	}
	opts.Pool = func(n int, run func(i int)) error {
		for i := 0; i < n; i++ {
			run(i)
			w.finished.Add(1)
		}
		return nil
	}
	return opts
}

// waitGoroutines fails t unless the number of goroutines falls back to n
// within a few seconds: every goroutine a run started has exited.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines are left, %d before the run", runtime.NumGoroutine(), n)
		}
	}
}

func TestFastForwardCancellation(t *testing.T) {
	prog, image := buildWorkload(t, "soplex")
	const budget = 1_000_000
	plan := PlanForBudget(budget)
	full := &countingPredictor{Predictor: bpu.NewTAGE(bpu.DefaultTAGEConfig())}
	if _, err := Run(prog, image, plan, Options{Budget: budget,
		NewPredictor: func() bpu.Predictor { return full }}); err != nil {
		t.Fatalf("uncancelled run: %v", err)
	}

	// Cancel from inside the warm stage, early in the fast-forward.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const cancelAt = 1_000
	p := &countingPredictor{Predictor: bpu.NewTAGE(bpu.DefaultTAGEConfig()), onCall: func(n int) {
		if n == cancelAt {
			cancel()
		}
	}}
	n := runtime.NumGoroutine()
	_, err := Run(prog, image, plan, Options{Budget: budget, Context: ctx,
		NewPredictor: func() bpu.Predictor { return p }})
	waitGoroutines(t, n)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want an error wrapping context.Canceled", err)
	}
	if p.calls >= full.calls/10 {
		t.Fatalf("cancelled run made %d warming calls, a full run %d: the fast-forward ignored the cancel",
			p.calls, full.calls)
	}
	t.Logf("cancelled after %d of %d warming calls", p.calls, full.calls)
}

func TestWarmStagePanicIsReraised(t *testing.T) {
	prog, image := buildWorkload(t, "gcc")
	boom := errors.New("predictor failure")
	p := &countingPredictor{Predictor: bpu.NewTAGE(bpu.DefaultTAGEConfig()), onCall: func(n int) {
		if n == 1_000 {
			panic(boom)
		}
	}}
	n := runtime.NumGoroutine()
	defer func() {
		if r := recover(); r != boom {
			t.Fatalf("Run's goroutine recovered %v, want the warm stage's panic %v", r, boom)
		}
		waitGoroutines(t, n)
	}()
	_, _ = Run(prog, image, DefaultPlan(), Options{Budget: 300_000,
		NewPredictor: func() bpu.Predictor { return p }})
	t.Fatalf("Run returned normally after a warm-stage panic")
}

func TestEmulateStagePanicIsReraised(t *testing.T) {
	// Without its Halt the loop runs off the end of the program, and the
	// emulator panics with its PC out of range after the first windows
	// have started.
	prog, image := buildHaltingLoop(8_000)
	prog = prog[:len(prog)-1]
	n := runtime.NumGoroutine()
	defer func() {
		r := recover()
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "out of range") {
			t.Fatalf("Run's goroutine recovered %v, want the emulator's PC-out-of-range panic", r)
		}
		waitGoroutines(t, n)
	}()
	_, _ = Run(prog, image, Plan{Interval: 10_000, Warmup: 500, Measure: 2_000}, Options{Budget: 100_000})
	t.Fatalf("Run returned normally after an emulate-stage panic")
}

func TestWindowsStartDuringFastForward(t *testing.T) {
	prog, image := buildWorkload(t, "gcc")
	const budget = 1_000_000
	var warmCalls atomic.Int64
	p := &countingPredictor{Predictor: bpu.NewTAGE(bpu.DefaultTAGEConfig()), onCall: func(n int) {
		warmCalls.Store(int64(n))
	}}
	atFirst := int64(-1) // warming calls made when window 0 starts
	est, err := Run(prog, image, PlanForBudget(budget), Options{Budget: budget,
		NewPredictor: func() bpu.Predictor { return p },
		NewScheme: func() ooo.Scheme {
			if atFirst < 0 {
				atFirst = warmCalls.Load()
			}
			return nil
		}})
	if err != nil {
		t.Fatalf("sampled run: %v", err)
	}
	if atFirst*2 >= int64(p.calls) {
		t.Fatalf("window 0 started after %d of %d warming calls: it waited for the fast-forward", atFirst, p.calls)
	}
	t.Logf("window 0 of %d started after %d of %d warming calls", len(est.Windows), atFirst, p.calls)
}

func TestFewWindowsAlive(t *testing.T) {
	// Each window runs 1.5k instructions in detail, and its interval
	// fast-forwards 200k, so a window finishes long before the next one is
	// ready.
	prog, image := buildWorkload(t, "gcc")
	var pw peakWindows
	est, err := Run(prog, image, Plan{Interval: 200_000, Warmup: 500, Measure: 1_000},
		pw.options(Options{Budget: 4_000_000}))
	if err != nil {
		t.Fatalf("sampled run: %v", err)
	}
	if pw.peak > 4 {
		t.Fatalf("%d of %d windows were alive at once", pw.peak, len(est.Windows))
	}
	t.Logf("at most %d of %d windows alive at once", pw.peak, len(est.Windows))
}

func TestSampledWithScheme(t *testing.T) {
	// Predication schemes run per-window with cold state; the run must
	// still be architecturally transparent at every boundary.
	prog, image := buildWorkload(t, "perlbench")
	plan := Plan{Interval: 25_000, Warmup: 1_000, Measure: 4_000}
	est, err := Run(prog, image, plan, Options{
		Budget:    200_000,
		NewScheme: func() ooo.Scheme { return core.New(core.DefaultConfig()) },
		Verify:    true,
	})
	if err != nil {
		t.Fatalf("sampled ACB run: %v", err)
	}
	if est.BoundaryFailures != 0 {
		for _, w := range est.Windows {
			if w.BoundaryDiff != "" {
				t.Errorf("window %d: %s", w.Index, w.BoundaryDiff)
			}
		}
		t.Fatalf("%d boundary failures under ACB scheme", est.BoundaryFailures)
	}
}

// BenchmarkRun times sampled runs of the benchmark's sampled-long mix
// (bench/sampled.go) at its 20M-instruction budget, with boundary
// verification and the windows on a serial pool. One iteration is eight
// runs; peak-windows is the most windows alive at once in any of them.
// Run it alone, at one and two CPUs:
//
//	go test ./internal/sample/ -run '^$' -bench Run -benchtime 1x -count 3 -cpu 1,2
func BenchmarkRun(b *testing.B) {
	const budget = 20_000_000
	type input struct {
		prog  []isa.Instruction
		image *isa.Memory
	}
	var inputs []input
	for _, name := range sampledLong {
		prog, image := buildWorkload(b, name)
		inputs = append(inputs, input{prog, image})
	}
	var pw peakWindows
	opts := pw.options(Options{Budget: budget, Verify: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range inputs {
			if _, err := Run(in.prog, in.image, PlanForBudget(budget), opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(pw.peak), "peak-windows")
}
