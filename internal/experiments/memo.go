package experiments

import (
	"sync"
	"sync/atomic"

	"acb/internal/dmp"
)

// memo is the single-flight cache of one Options value: its simulations
// and the DMP profile of each workload they ran.
type memo struct {
	runs     flight[runKey, run]
	profiles flight[profileKey, []dmp.Candidate]
}

type profileKey struct {
	workload string
	seed     uint64
}

// flight computes each key's value once: the first caller computes it
// while concurrent callers wait. A computation that panics (a failed or
// cancelled simulation) re-panics in every caller waiting on it and is
// dropped, so it is never cached as a zero value.
type flight[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*call[V]
	execs atomic.Int64 // computations started, for tests
}

type call[V any] struct {
	done    chan struct{}
	val     V
	ok      bool // the computation returned
	failure any  // what it panicked with, if not
	waiters int  // callers that found it rather than compute it; for tests, guarded by flight.mu
}

// has reports whether key's value is computed or being computed.
func (f *flight[K, V]) has(key K) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, ok := f.calls[key]
	return ok
}

func (f *flight[K, V]) do(key K, fn func() V) V {
	f.mu.Lock()
	c, found := f.calls[key]
	if !found {
		if f.calls == nil {
			f.calls = make(map[K]*call[V])
		}
		c = &call[V]{done: make(chan struct{})}
		f.calls[key] = c
		f.mu.Unlock()
		f.execs.Add(1)
		func() {
			defer func() {
				if !c.ok {
					c.failure = recover()
					f.mu.Lock()
					delete(f.calls, key)
					f.mu.Unlock()
				}
				close(c.done)
			}()
			c.val = fn()
			c.ok = true
		}()
	} else {
		c.waiters++
		f.mu.Unlock()
	}
	<-c.done
	if !c.ok {
		panic(c.failure)
	}
	return c.val
}
