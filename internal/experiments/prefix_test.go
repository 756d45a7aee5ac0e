package experiments

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestGridSharesDormantPrefix: Fig. 6 on gcc and hmmer at 100k shares
// one dormant prefix per workload, serial or parallel, and prints the
// same table from the same runs (results and ACB state) as a grid whose
// runs all start from the beginning. A rerun shares none. A cancelled
// prefix fails both engines with an errors.Is-able cancellation and
// leaves nothing cached.
func TestGridSharesDormantPrefix(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	ref := smallOpts(t, "gcc", "hmmer")
	ref.Budget = 100_000
	ref.Stats = &RunnerStats{}
	ref.fill()
	for i := range ref.Workloads {
		for _, k := range []SchemeKind{SchemeBaseline, SchemeACB} {
			ref.simulate(&image{w: &ref.Workloads[i]}, catalogue[k]) // no pair: from the start
		}
	}
	want := Figure6(ref).String() // memo hits only
	if n := ref.Stats.Prefixes(); n != 0 {
		t.Fatalf("the reference grid shared %d prefixes, want none", n)
	}
	for _, jobs := range []int{1, 2} {
		opts := smallOpts(t, "gcc", "hmmer")
		opts.Budget = 100_000
		opts.Jobs = jobs
		opts.Stats = &RunnerStats{}
		if got := Figure6(opts).String(); got != want {
			t.Fatalf("-jobs %d: the shared grid printed\n%s\nwant\n%s", jobs, got, want)
		}
		if n := opts.Stats.Prefixes(); n != 2 {
			t.Fatalf("-jobs %d: fig6 on two workloads shared %d prefixes, want 2", jobs, n)
		}
		for key, c := range opts.memo.runs.calls {
			if !reflect.DeepEqual(c.val, ref.memo.runs.calls[key].val) {
				t.Fatalf("-jobs %d: %s/%s differs from its run from the start", jobs, key.workload, key.engine.Scheme)
			}
		}
		sims := opts.Stats.Simulations()
		Figure6(opts)
		if n, s := opts.Stats.Prefixes(), opts.Stats.Simulations(); n != 2 || s != sims {
			t.Fatalf("-jobs %d: a rerun shared %d prefixes and ran %d simulations, want none", jobs, n-2, s-sims)
		}
	}

	// Cancel the prefix at its first poll, once the second engine waits on
	// it: both engines fail with the cancellation, the prefix ran once,
	// and neither it nor a run is cached.
	opts := smallOpts(t, "gcc")
	opts.Budget = 100_000
	opts.fill()
	engines := []Engine{catalogue[SchemeBaseline], catalogue[SchemeACB]}
	img := &image{w: &opts.Workloads[0], pair: opts.dormantPair(engines)}
	if img.pair == nil {
		t.Fatal("fig6's engines form no dormant pair")
	}
	opts.Context = &cancelWhenWaited{Context: context.Background(), img: img}
	errs := make(chan error, len(engines))
	for _, e := range engines {
		go func(e Engine) {
			defer func() {
				err, _ := recover().(error)
				errs <- err
			}()
			opts.simulate(img, e)
		}(e)
	}
	for range engines {
		if err := <-errs; !errors.Is(err, context.Canceled) {
			t.Fatalf("an engine of a cancelled prefix failed with %v, want context.Canceled", err)
		}
	}
	if n := img.prefix.execs.Load(); n != 1 {
		t.Fatalf("the prefix ran %d times, want once for both engines", n)
	}
	if n, m := len(img.prefix.calls), len(opts.memo.runs.calls); n != 0 || m != 0 {
		t.Fatalf("a cancelled prefix left %d prefixes and %d runs cached", n, m)
	}
}

// cancelWhenWaited is a context whose Err waits until a second caller
// waits on img's prefix, and from then on reports cancellation.
type cancelWhenWaited struct {
	context.Context
	img  *image
	done atomic.Bool
}

func (c *cancelWhenWaited) Err() error {
	for !c.done.Load() {
		c.img.prefix.mu.Lock()
		if call := c.img.prefix.calls[struct{}{}]; call != nil && call.waiters > 0 {
			c.done.Store(true)
		}
		c.img.prefix.mu.Unlock()
		runtime.Gosched()
	}
	return context.Canceled
}
