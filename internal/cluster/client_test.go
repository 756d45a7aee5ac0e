package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"acb/internal/service"
)

// faultLog is a service.FaultPoints that records every point fired, in
// order, and fails the points in fail with a transport-class error.
type faultLog struct {
	mu    sync.Mutex
	fired []string
	fail  map[string]bool
}

func (f *faultLog) Fire(point string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fired = append(f.fired, point)
	if f.fail[point] {
		return errors.New("injected partition")
	}
	return nil
}

// count returns how many times point fired.
func (f *faultLog) count(point string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, p := range f.fired {
		if p == point {
			n++
		}
	}
	return n
}

// nodes returns the nodes RPCs went to, one entry per attempt, and
// clears the log.
func (f *faultLog) nodes() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []string
	for _, p := range f.fired {
		if node, ok := strings.CutPrefix(p, "rpc."); ok {
			out = append(out, node)
		}
	}
	f.fired = nil
	return out
}

// TestClientRetryStalledPeer: a peer that accepts connections but never
// answers must not hang an idempotent RPC — each attempt is cut by the
// client's own per-RPC deadline, the bounded retry schedule runs dry,
// and the call returns a transport error in bounded time, both fault
// points having fired on every attempt.
func TestClientRetryStalledPeer(t *testing.T) {
	var hits int64
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt64(&hits, 1)
		<-release // stall until the test tears down
	}))
	// Unblock the stalled handlers before Close waits on them.
	defer ts.Close()
	defer close(release)

	faults := &faultLog{}
	c := NewClient(100*time.Millisecond, faults) // per-RPC deadline
	c.SetRetry(3, 10*time.Millisecond, 40*time.Millisecond, 1)

	start := time.Now()
	err := c.retry(context.Background(), func() error {
		return c.call(context.Background(), "stalled", http.MethodGet, ts.URL+"/v1/healthz", nil, nil)
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("RPC against a stalled peer succeeded")
	}
	if code := StatusCode(err); code != 0 {
		t.Errorf("stall surfaced as status %d, want transport error", code)
	}
	if got := atomic.LoadInt64(&hits); got != 3 {
		t.Errorf("peer saw %d attempts, want 3", got)
	}
	if r, n := faults.count("rpc"), faults.count("rpc.stalled"); r != 3 || n != 3 {
		t.Errorf("fault points rpc/rpc.stalled fired %d/%d times, want 3/3", r, n)
	}
	// 3 × 100ms deadlines plus two backoffs ≤ 40ms each, with headroom.
	if elapsed > 2*time.Second {
		t.Errorf("bounded retry took %v", elapsed)
	}
}

// TestClientRetry5xxThenSuccess: transient answers (5xx, 429) are
// retried and the eventual success is returned, the schedule invisible
// to the caller; a peer that keeps answering one is tried exactly tries
// times, with both fault points fired on every attempt, and its status
// is returned.
func TestClientRetry5xxThenSuccess(t *testing.T) {
	for _, code := range []int{http.StatusServiceUnavailable, http.StatusInternalServerError, http.StatusTooManyRequests} {
		var hits, failing atomic.Int64
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if hits.Add(1) <= failing.Load() {
				http.Error(w, `{"error":"transient"}`, code)
				return
			}
			w.Write([]byte(`{"status":"ok"}`))
		}))
		faults := &faultLog{}
		c := NewClient(time.Second, faults)
		c.SetRetry(3, time.Millisecond, 5*time.Millisecond, 1)
		ctx := context.Background()

		failing.Store(2)
		var out struct {
			Status string `json:"status"`
		}
		if err := c.retry(ctx, func() error { return c.call(ctx, "flaky", http.MethodGet, ts.URL+"/x", nil, &out) }); err != nil {
			t.Fatalf("%d: retry never recovered: %v", code, err)
		}
		if out.Status != "ok" || hits.Load() != 3 {
			t.Errorf("%d: status %q after %d attempts, want ok after 3", code, out.Status, hits.Load())
		}

		hits.Store(0)
		failing.Store(1 << 30)
		err := c.retry(ctx, func() error {
			_, err := c.send(ctx, "flaky", http.MethodGet, ts.URL+"/x", nil, maxRaw)
			return err
		})
		if StatusCode(err) != code || hits.Load() != 3 {
			t.Errorf("%d: persistent failure = %v after %d attempts, want status %d after 3", code, err, hits.Load(), code)
		}
		if err != nil && !strings.Contains(err.Error(), "transient") {
			t.Errorf("%d: error %q does not carry the reply's error field", code, err)
		}
		if r, n := faults.count("rpc"), faults.count("rpc.flaky"); r != 6 || n != 6 {
			t.Errorf("%d: fault points rpc/rpc.flaky fired %d/%d times, want 6/6", code, r, n)
		}
		ts.Close()
	}
}

// TestClientNoRetryOnAuthoritative: 404 (miss) and 409 (fenced) answers
// are authoritative — a *statusError after exactly one attempt, no
// backoff burned.
func TestClientNoRetryOnAuthoritative(t *testing.T) {
	var hits int64
	var code atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt64(&hits, 1)
		http.Error(w, `{"error":"no"}`, int(code.Load()))
	}))
	defer ts.Close()
	c := NewClient(time.Second, nil)
	c.SetRetry(3, time.Millisecond, 5*time.Millisecond, 1)
	ctx := context.Background()

	for _, want := range []int{http.StatusNotFound, http.StatusConflict} {
		atomic.StoreInt64(&hits, 0)
		code.Store(int64(want))
		var b []byte
		err := c.retry(ctx, func() (err error) {
			b, err = c.send(ctx, "peer", http.MethodGet, ts.URL+"/v1/store/k", nil, maxRaw)
			return err
		})
		if b != nil || StatusCode(err) != want {
			t.Errorf("%d = (%q, %v), want statusError %d", want, b, err, want)
		}
		if atomic.LoadInt64(&hits) != 1 {
			t.Errorf("%d took %d attempts, want 1", want, hits)
		}
	}
}

// TestClientStampsEpochAndReportsFencing: an epoch-bearing client stamps
// every RPC; a 409 carrying a higher epoch triggers the onStale hook
// exactly once, with the fencing epoch, even under the retry schedule.
func TestClientStampsEpochAndReportsFencing(t *testing.T) {
	var sawEpoch atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sawEpoch.Store(r.Header.Get(EpochHeader))
		w.Header().Set(EpochHeader, "7")
		http.Error(w, `{"error":"stale"}`, http.StatusConflict)
	}))
	defer ts.Close()

	var staleWith atomic.Uint64
	var stale atomic.Int64
	c := NewClient(time.Second, nil)
	c.SetRetry(3, time.Millisecond, time.Millisecond, 1)
	c.SetEpoch(3, func(higher uint64) { stale.Add(1); staleWith.Store(higher) })

	ctx := context.Background()
	err := c.retry(ctx, func() error {
		return c.call(ctx, "w1", http.MethodPost, ts.URL+"/v1/jobs", map[string]int{"seed": 1}, nil)
	})
	if StatusCode(err) != http.StatusConflict {
		t.Fatalf("want 409, got %v", err)
	}
	if got := sawEpoch.Load(); got != "3" {
		t.Errorf("request carried epoch %v, want \"3\"", got)
	}
	if stale.Load() != 1 || staleWith.Load() != 7 {
		t.Errorf("onStale fired %d times with %d, want once with 7", stale.Load(), staleWith.Load())
	}
}

// TestClientReplyCap: a reply body longer than its path's cap fails
// instead of being read on; one at the cap is returned whole.
func TestClientReplyCap(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(strings.Repeat("x", 9)))
	}))
	defer ts.Close()
	c := NewClient(time.Second, nil)
	ctx := context.Background()
	if b, err := c.send(ctx, "w1", http.MethodGet, ts.URL, nil, 9); err != nil || len(b) != 9 {
		t.Errorf("reply at its cap = (%q, %v), want 9 bytes", b, err)
	}
	if b, err := c.send(ctx, "w1", http.MethodGet, ts.URL, nil, 8); err == nil || b != nil {
		t.Errorf("reply over its cap = (%q, %v), want an error", b, err)
	}
}

// TestFetchWalkOrder: both roles walk envelope candidates through one
// function. A coordinator asks the key's ring owner, then its successor,
// then the rest of the live fleet in name order; a worker asks the
// owner and the successor, skipping itself. The first hit wins, all-404
// is a clean (nil, nil) miss, and a transport error followed by 404s is
// returned.
func TestFetchWalkOrder(t *testing.T) {
	names := []string{"w1", "w2", "w3", "w4"}
	var mu sync.Mutex
	have := make(map[string]bool) // which workers hold the envelope
	urls := make(map[string]string)
	var members []Member
	for _, name := range names {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			ok := have[name]
			mu.Unlock()
			if !ok {
				http.Error(w, `{"error":"no such key"}`, http.StatusNotFound)
				return
			}
			w.Write([]byte("env-" + name))
		}))
		t.Cleanup(ts.Close)
		urls[name] = ts.URL
		members = append(members, Member{Name: name, URL: ts.URL})
	}
	key := strings.Repeat("5a", 32)
	owners := NewRing(names...).Owners(key, 2)
	var rest []string
	for _, name := range names {
		if name != owners[0] && name != owners[1] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)

	faults := &faultLog{fail: make(map[string]bool)}
	client := NewClient(time.Second, faults)
	client.SetRetry(2, time.Millisecond, time.Millisecond, 1)
	store, err := service.NewStore(4, "")
	if err != nil {
		t.Fatal(err)
	}
	coord, err := New(Config{Workers: members}, store)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Shutdown(context.Background())
	coord.client = client
	coord.Lock()
	for _, m := range coord.members {
		m.alive = true
	}
	coord.Unlock()

	ctx := context.Background()
	check := func(what string, fetch service.PeerFetchFunc, wantBody string, wantErr bool, wantAsked ...string) {
		t.Helper()
		b, err := fetch(ctx, key)
		if string(b) != wantBody || (err != nil) != wantErr {
			t.Errorf("%s = (%q, %v), want (%q, error %v)", what, b, err, wantBody, wantErr)
		}
		if err != nil && StatusCode(err) != 0 {
			t.Errorf("%s returned %v, want the transport error", what, err)
		}
		if asked := faults.nodes(); strings.Join(asked, ",") != strings.Join(wantAsked, ",") {
			t.Errorf("%s asked %v, want %v", what, asked, wantAsked)
		}
	}
	all := append(append([]string{}, owners...), rest...)
	check("coordinator, nobody has it", coord.fetchEnvelope, "", false, all...)

	faults.fail["rpc."+owners[0]] = true // transport errors, retried once
	check("coordinator, owner unreachable", coord.fetchEnvelope, "", true,
		append([]string{owners[0]}, all...)...)
	delete(faults.fail, "rpc."+owners[0])

	hold := func(name string, ok bool) {
		mu.Lock()
		have[name] = ok
		mu.Unlock()
	}
	hold(owners[1], true)
	hold(rest[0], true)
	check("coordinator, successor has it", coord.fetchEnvelope, "env-"+owners[1], false, owners...)
	hold(owners[1], false)
	check("coordinator, only the rest has it", coord.fetchEnvelope, "env-"+rest[0], false, all[:3]...)

	coord.Lock()
	coord.members[rest[0]].alive = false
	coord.Unlock()
	check("coordinator, holder dead", coord.fetchEnvelope, "", false, owners[0], owners[1], rest[1])

	check("worker off the key's shards", PeerFetcher(rest[0], urls, client), "", false, owners...)
	hold(owners[1], true)
	check("owner", PeerFetcher(owners[0], urls, client), "env-"+owners[1], false, owners[1])
}
