package cluster

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
)

// EpochHeader carries the coordinator's fencing epoch on every
// inter-node RPC (and the worker's current epoch on a 409 rejection, so
// a stale coordinator learns what fenced it).
const EpochHeader = "X-Acbd-Epoch"

// Fence is the worker-side half of the epoch protocol: an HTTP
// middleware wrapped around the worker's service handler. Requests
// without an epoch header (direct clients, peer store fetches) pass
// untouched. Epoch-stamped requests — coordinator RPCs — are compared
// against the highest epoch this worker has accepted: higher adopts,
// equal passes, lower is rejected with 409 Conflict and the current
// epoch echoed back. That rejection is what makes split-brain
// impossible: after a standby promotes, the partitioned old primary's
// every post, poll and cancel bounces off the fleet.
//
// The fence also backs the worker's /v1/readyz: after adopting a new
// epoch the worker reports not-ready until the new coordinator has
// listed its jobs (GET /v1/jobs at the current epoch) — i.e. until its
// state has been reconciled into the new job table. Load balancers
// should not route around a worker the active coordinator hasn't seen.
type Fence struct {
	mu         sync.Mutex
	epoch      uint64
	reconciled bool
	rejected   int64
}

// NewFence returns a fence at epoch 0 (never clustered: everything
// passes, readyz unaffected).
func NewFence() *Fence { return &Fence{} }

// Epoch returns the highest coordinator epoch accepted so far.
func (f *Fence) Epoch() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

// Rejected returns how many stale-epoch RPCs have been fenced off.
func (f *Fence) Rejected() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rejected
}

// Ready is a service.Server readiness hook: not ready between adopting
// a new coordinator epoch and being reconciled by it.
func (f *Fence) Ready() (bool, string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.epoch != 0 && !f.reconciled {
		return false, fmt.Sprintf("re-registering with coordinator epoch %d", f.epoch)
	}
	return true, ""
}

// Middleware wraps next with the epoch gate.
func (f *Fence) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := r.Header.Get(EpochHeader)
		if h == "" {
			next.ServeHTTP(w, r)
			return
		}
		n, err := strconv.ParseUint(h, 10, 64)
		if err != nil || n == 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("cluster: bad %s %q", EpochHeader, h))
			return
		}
		f.mu.Lock()
		if n < f.epoch {
			cur := f.epoch
			f.rejected++
			f.mu.Unlock()
			w.Header().Set(EpochHeader, strconv.FormatUint(cur, 10))
			writeError(w, http.StatusConflict,
				fmt.Errorf("cluster: stale coordinator epoch %d (current %d)", n, cur))
			return
		}
		if n > f.epoch {
			f.epoch = n
			f.reconciled = false
		}
		// The new coordinator listing our jobs is the reconciliation
		// handshake: our state is now folded into its job table.
		if !f.reconciled && r.Method == http.MethodGet && r.URL.Path == "/v1/jobs" {
			f.reconciled = true
		}
		f.mu.Unlock()
		next.ServeHTTP(w, r)
	})
}
