package experiments

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"acb/internal/ooo"
	"acb/internal/stats"
	"acb/internal/workload"
)

// TestParallelSweepMatchesSerial: a parallel sweep (Jobs: 8) must produce
// results — and rendered tables, sorting included — identical to the
// serial run. Each side has its own memo, so both simulate everything;
// the schemes include DMP so the single-flight profile memo is on the hot
// path.
func TestParallelSweepMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	opts := smallOpts(t, "lammps", "omnetpp", "soplex")
	opts.Budget = 60_000

	serial := opts
	serial.Jobs = 1
	serial.memo = &memo{}
	parallel := opts
	parallel.Jobs = 8
	parallel.memo = &memo{}

	rs := sweep(serial, SchemeBaseline, SchemeACB, SchemeDMP)
	rp := sweep(parallel, SchemeBaseline, SchemeACB, SchemeDMP)
	if !reflect.DeepEqual(rs, rp) {
		t.Fatalf("parallel sweep diverged from serial:\nserial:   %+v\nparallel: %+v", rs, rp)
	}

	// Byte-identical figure output (Figure7 also exercises SortByColumn).
	ts := Figure7(serial).String()
	tp := Figure7(parallel).String()
	if ts != tp {
		t.Fatalf("Figure7 output differs between -jobs 1 and -jobs 8:\nserial:\n%s\nparallel:\n%s", ts, tp)
	}
}

// TestProfileCacheSingleFlight hammers the run path with every DMP-family
// scheme from many goroutines (run under -race in CI): each workload must
// be profiled exactly once and each simulation run once, and every caller
// must observe the same result.
func TestProfileCacheSingleFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling runs")
	}
	opts := smallOpts(t, "omnetpp", "xalancbmk")
	opts.Budget = 20_000
	opts.fill()
	kinds := []SchemeKind{SchemeDMP, SchemeDMPPBH, SchemeDHP}

	var wg sync.WaitGroup
	var mu sync.Mutex
	got := map[string][]ooo.Result{}
	for g := 0; g < 8; g++ {
		for i := range opts.Workloads {
			for _, k := range kinds {
				wg.Add(1)
				go func(w *workload.Workload, k SchemeKind) {
					defer wg.Done()
					res := opts.simulate(w, catalogue[k]).res
					mu.Lock()
					got[w.Name+"/"+string(k)] = append(got[w.Name+"/"+string(k)], res)
					mu.Unlock()
				}(&opts.Workloads[i], k)
			}
		}
	}
	wg.Wait()

	if n := opts.memo.profiles.execs.Load(); n != int64(len(opts.Workloads)) {
		t.Fatalf("dmp.Profile ran %d times for %d workloads, want exactly one per workload", n, len(opts.Workloads))
	}
	if n, want := opts.memo.runs.execs.Load(), int64(len(opts.Workloads)*len(kinds)); n != want {
		t.Fatalf("%d simulations ran, want %d", n, want)
	}
	for key, rs := range got {
		for _, r := range rs[1:] {
			if !reflect.DeepEqual(r, rs[0]) {
				t.Fatalf("%s: callers observed different results", key)
			}
		}
	}
}

// TestMemoRunsEachSimulationOnce runs every experiment of an "all" run on
// a small subset and counts simulations: each distinct one runs exactly
// once. On gcc and eembc that is 37 — fig1's 12 (1x is the Skylake core,
// so its baselines are fig6's), acb +2, fig8's no-Dynamo and DMP +4,
// fig9's 13 (omnetpp, xalancbmk and h264ref in full, eembc's DMP-PBH),
// fig11's DHP +2, scaling's future core +4; cpistack's runs are fig6's —
// where running each experiment afresh takes 74.
func TestMemoRunsEachSimulationOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	opts := smallOpts(t, "gcc", "eembc")
	opts.Budget = 20_000
	opts.Stats = &RunnerStats{}
	jobs := 0
	for _, e := range Experiments() {
		if !e.Extra {
			e.Func(opts)
			jobs++
		}
	}
	const want = 37
	if got := opts.Stats.Simulations(); got != want {
		t.Fatalf("an all run simulated %d times, want %d distinct simulations", got, want)
	}
	if got := opts.memo.runs.execs.Load(); got != want {
		t.Fatalf("memo computed %d runs, want %d", got, want)
	}
	if got := len(opts.memo.runs.calls); got != want {
		t.Fatalf("memo holds %d runs, want %d", got, want)
	}
	if opts.Stats.Cycles() <= 0 {
		t.Fatal("no simulated cycles counted")
	}
}

// TestMemoByNameWorkloadsHitSuiteEntries: Figs. 9 and 10 look their
// workloads up by name; those are the suite's entries, so after Fig. 8 on
// the outliers Fig. 9 adds only DMP-PBH and Fig. 10 nothing.
func TestMemoByNameWorkloadsHitSuiteEntries(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	opts := DefaultOptions()
	opts.Budget = 20_000
	opts.Stats = &RunnerStats{}
	outliers := append(append([]string{}, OutlierD...), OutlierE...)
	for _, w := range workload.All() {
		for _, n := range outliers {
			if w.Name == n {
				opts.Workloads = append(opts.Workloads, w)
			}
		}
	}
	steps := []struct {
		name string
		run  func(Options) *stats.Table
		want int64
	}{
		{"fig8", Figure8, 4 * 4},
		{"fig9", Figure9, 4},
		{"fig10", Figure10, 0},
	}
	for _, s := range steps {
		before := opts.Stats.Simulations()
		s.run(opts)
		if got := opts.Stats.Simulations() - before; got != s.want {
			t.Errorf("%s ran %d new simulations, want %d", s.name, got, s.want)
		}
	}
}

// TestMemoKeysOnSeed: two workloads that differ only in their spec seed
// build different images, so they never share an entry.
func TestMemoKeysOnSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("simulations")
	}
	opts := smallOpts(t, "gcc")
	opts.Budget = 20_000
	opts.Stats = &RunnerStats{}
	opts.fill()
	w := opts.Workloads[0]
	other := w
	other.Spec.Seed++
	a := opts.simulate(&w, catalogue[SchemeBaseline]).res
	b := opts.simulate(&other, catalogue[SchemeBaseline]).res
	if got := opts.Stats.Simulations(); got != 2 {
		t.Fatalf("%d simulations for two seeds, want 2", got)
	}
	if reflect.DeepEqual(a, b) {
		t.Fatal("seeds +0 and +1 gave identical results")
	}
}

// TestMemoFailureIsNotCached: a computation that panics re-panics in every
// caller waiting on it and leaves no entry behind, so the next caller
// computes afresh (run under -race).
func TestMemoFailureIsNotCached(t *testing.T) {
	var f flight[string, int]
	failure := errors.New("boom")
	const waiters = 8
	panics := make(chan any, waiters+1)
	call := func(fn func() int) {
		defer func() { panics <- recover() }()
		f.do("k", fn)
	}
	entered := make(chan struct{})
	go call(func() int {
		close(entered)
		for { // fail only once every waiter waits on this computation
			f.mu.Lock()
			n := f.calls["k"].waiters
			f.mu.Unlock()
			if n == waiters {
				panic(failure)
			}
			runtime.Gosched()
		}
	})
	<-entered
	for i := 0; i < waiters; i++ {
		go call(func() int {
			t.Error("a waiter computed the key")
			return 0
		})
	}
	for i := 0; i < waiters+1; i++ {
		if got := <-panics; got != failure {
			t.Fatalf("caller recovered %v, want %v", got, failure)
		}
	}
	if n := len(f.calls); n != 0 {
		t.Fatalf("failed call left %d entries", n)
	}
	if got := f.do("k", func() int { return 7 }); got != 7 {
		t.Fatalf("retry returned %d", got)
	}
	if n := f.execs.Load(); n != 2 {
		t.Fatalf("%d computations, want 2", n)
	}
}

// TestMemoCancelledRunIsNotCached: a simulation cancelled mid-run panics
// with the context's error and is not remembered; the same simulation
// under a live context then runs in full.
func TestMemoCancelledRunIsNotCached(t *testing.T) {
	if testing.Short() {
		t.Skip("simulations")
	}
	opts := smallOpts(t, "gcc")
	opts.Budget = 20_000
	opts.Stats = &RunnerStats{}
	opts.fill()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts.Context = ctx
	func() {
		defer func() {
			err, _ := recover().(error)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled run panicked with %v, want context.Canceled", err)
			}
		}()
		opts.simulate(&opts.Workloads[0], catalogue[SchemeACB])
	}()
	if n := len(opts.memo.runs.calls); n != 0 {
		t.Fatalf("cancelled run left %d memo entries", n)
	}
	opts.Context = context.Background()
	if res := opts.simulate(&opts.Workloads[0], catalogue[SchemeACB]).res; res.Retired < opts.Budget {
		t.Fatalf("retry retired %d instructions, want %d", res.Retired, opts.Budget)
	}
	if got := opts.Stats.Simulations(); got != 1 {
		t.Fatalf("%d simulations counted, want 1 (a cancelled run is not one)", got)
	}
}

// TestSampledRunsCountAsSimulationTime: sampled-fig6's sampled runs are
// simulation time in RunnerStats, so its effective speedup measures
// them. Its full runs are memo hits here, so all the simulation time the
// experiment adds is its sampled runs', inside its pool's wall time.
func TestSampledRunsCountAsSimulationTime(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	opts := smallOpts(t, "gcc")
	opts.Budget = 60_000
	opts.Jobs = 1
	opts.Stats = &RunnerStats{}
	Figure6(opts) // runs the baselines sampled-fig6 compares against
	sims, sim, wall := opts.Stats.Simulations(), opts.Stats.Sim(), opts.Stats.Wall()
	SampledFig6(opts)
	if got := opts.Stats.Simulations(); got != sims {
		t.Fatalf("sampled-fig6 ran %d new memoized simulations, want 0", got-sims)
	}
	added, poolWall := opts.Stats.Sim()-sim, opts.Stats.Wall()-wall
	if added <= 0 || added > poolWall {
		t.Fatalf("sampled runs added %s of simulation time in a %s pool", added, poolWall)
	}
}
