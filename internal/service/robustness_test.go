package service

import (
	"context"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"acb/internal/faultinject"
)

// newRobustScheduler builds a scheduler over an in-memory (or dir-backed)
// store with fast retry timing, shut down with the test.
func newRobustScheduler(t *testing.T, cfg SchedulerConfig, dir string) *Scheduler {
	t.Helper()
	store, err := NewStore(16, dir)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Faults != nil {
		store.SetFaults(cfg.Faults)
	}
	if cfg.RetryBase == 0 {
		cfg.RetryBase = time.Millisecond
	}
	if cfg.RetryMax == 0 {
		cfg.RetryMax = 5 * time.Millisecond
	}
	if cfg.RetrySeed == 0 {
		cfg.RetrySeed = 1
	}
	sched := NewScheduler(cfg, store)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		sched.Shutdown(ctx)
	})
	return sched
}

func waitTerminal(t *testing.T, sched *Scheduler, id string) JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := sched.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	return st
}

// gateFaults blocks the worker at the "worker" injection point until
// released, letting tests pin a job in the running state with no timing
// races.
type gateFaults struct{ release chan struct{} }

func (g gateFaults) Fire(point string) error {
	if point == "worker" {
		<-g.release
	}
	return nil
}

// TestRetryTransientFailure: injected worker faults on the first two runs
// are retried with backoff and the third run succeeds; attempts and the
// retried counter reflect the schedule.
func TestRetryTransientFailure(t *testing.T) {
	inj := faultinject.New(1)
	inj.Set("worker", faultinject.Rule{Nth: 1, Limit: 2}) // fail run 1 and 2
	sched := newRobustScheduler(t, SchedulerConfig{Faults: inj, MaxAttempts: 3}, "")

	st, created, err := sched.Submit(Request{Experiment: "table1"})
	if err != nil || !created {
		t.Fatalf("submit: created=%v err=%v", created, err)
	}
	final := waitTerminal(t, sched, st.ID)
	if final.State != JobDone {
		t.Fatalf("job %s (%s), want done after retries", final.State, final.Error)
	}
	if final.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", final.Attempts)
	}
	if got := sched.Counters().Get("retried"); got != 2 {
		t.Fatalf("retried counter = %d, want 2", got)
	}
	if got := sched.Counters().Get("done"); got != 1 {
		t.Fatalf("done counter = %d, want 1", got)
	}
}

// TestRetryExhaustion: a job that keeps failing transiently is retried
// exactly MaxAttempts-1 times, then fails with the transient error kind.
func TestRetryExhaustion(t *testing.T) {
	inj := faultinject.New(1)
	inj.Set("worker", faultinject.Rule{Nth: 1}) // always fail
	sched := newRobustScheduler(t, SchedulerConfig{Faults: inj, MaxAttempts: 3}, "")

	st, _, err := sched.Submit(Request{Experiment: "table1"})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, sched, st.ID)
	if final.State != JobFailed {
		t.Fatalf("job %s, want failed", final.State)
	}
	if final.ErrorKind != ErrKindTransient {
		t.Fatalf("error kind %q, want %q", final.ErrorKind, ErrKindTransient)
	}
	if final.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", final.Attempts)
	}
	if !strings.Contains(final.Error, "attempt 3/3") {
		t.Fatalf("error %q does not surface the attempt count", final.Error)
	}
	if got := sched.Counters().Get("retried"); got != 2 {
		t.Fatalf("retried counter = %d, want 2", got)
	}
	if got := faultinject.IsInjected(nil); got {
		t.Fatal("sanity: nil is not injected")
	}
}

// TestRetryBackoffSchedule: the delays requested from the injected timer
// follow the exponential equal-jitter schedule.
func TestRetryBackoffSchedule(t *testing.T) {
	inj := faultinject.New(1)
	inj.Set("worker", faultinject.Rule{Nth: 1}) // always fail
	delays := make(chan time.Duration, 16)
	base, max := 100*time.Millisecond, 350*time.Millisecond
	cfg := SchedulerConfig{
		Faults:      inj,
		MaxAttempts: 4,
		RetryBase:   base,
		RetryMax:    max,
		RetrySeed:   7,
		After: func(d time.Duration) <-chan time.Time {
			delays <- d
			ch := make(chan time.Time, 1)
			ch <- time.Time{}
			return ch
		},
	}
	sched := newRobustScheduler(t, cfg, "")
	st, _, err := sched.Submit(Request{Experiment: "table1"})
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, sched, st.ID); final.State != JobFailed {
		t.Fatalf("job %s, want failed after exhausting retries", final.State)
	}
	// Three retries: after runs 1, 2 and 3. Expected envelopes (equal
	// jitter in [d/2, d]): d1=base, d2=2*base, d3=min(4*base, max)=max.
	wantMax := []time.Duration{base, 2 * base, max}
	for i, hi := range wantMax {
		select {
		case d := <-delays:
			if d < hi/2 || d > hi {
				t.Fatalf("retry %d delay %s outside [%s, %s]", i+1, d, hi/2, hi)
			}
		default:
			t.Fatalf("timer fired only %d times, want %d", i, len(wantMax))
		}
	}
}

// TestRetryDelayDeterministic: the jitter is reproducible from the seed
// and respects the cap.
func TestRetryDelayDeterministic(t *testing.T) {
	base, max := 250*time.Millisecond, 10*time.Second
	a, b := rand.New(rand.NewSource(42)), rand.New(rand.NewSource(42))
	for attempt := 1; attempt <= 12; attempt++ {
		da, db := Backoff(attempt-1, base, max, a), Backoff(attempt-1, base, max, b)
		if da != db {
			t.Fatalf("attempt %d: same seed gave %s vs %s", attempt, da, db)
		}
		if da > max {
			t.Fatalf("attempt %d: delay %s above cap %s", attempt, da, max)
		}
		if da < base/2 {
			t.Fatalf("attempt %d: delay %s below base/2", attempt, da)
		}
	}
	// Deep attempts saturate at the cap's jitter band.
	d := Backoff(39, base, max, rand.New(rand.NewSource(3)))
	if d < max/2 || d > max {
		t.Fatalf("saturated delay %s outside [%s, %s]", d, max/2, max)
	}
}

// TestDeadlineExceeded: a request-level timeout kills the run, classifies
// the failure distinctly, and is never retried.
func TestDeadlineExceeded(t *testing.T) {
	inj := faultinject.New(1)
	// Artificial slowness: 300ms stall per run against a 50ms deadline.
	inj.Set("worker.slow", faultinject.Rule{Kind: faultinject.Slow, Nth: 1, Delay: 300 * time.Millisecond})
	sched := newRobustScheduler(t, SchedulerConfig{Faults: inj}, "")

	st, _, err := sched.Submit(Request{Experiment: "table1", TimeoutMS: 50})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, sched, st.ID)
	if final.State != JobFailed {
		t.Fatalf("job %s (%s), want failed", final.State, final.Error)
	}
	if final.ErrorKind != ErrKindDeadline {
		t.Fatalf("error kind %q, want %q", final.ErrorKind, ErrKindDeadline)
	}
	if !strings.Contains(final.Error, "deadline exceeded") {
		t.Fatalf("error %q missing deadline classification", final.Error)
	}
	if final.Attempts != 1 {
		t.Fatalf("deadline-exceeded job was retried: attempts = %d", final.Attempts)
	}
	if got := sched.Counters().Get("deadline_exceeded"); got != 1 {
		t.Fatalf("deadline_exceeded counter = %d, want 1", got)
	}
	if got := sched.Counters().Get("retried"); got != 0 {
		t.Fatalf("retried counter = %d, want 0", got)
	}
}

// TestJobTimeoutResolution: request timeouts are capped by MaxTimeout and
// fall back to DefaultTimeout.
func TestJobTimeoutResolution(t *testing.T) {
	sched := newRobustScheduler(t, SchedulerConfig{
		DefaultTimeout: 2 * time.Second,
		MaxTimeout:     10 * time.Second,
	}, "")
	for _, tc := range []struct {
		ms   int64
		want time.Duration
	}{
		{0, 2 * time.Second}, // default
		{500, 500 * time.Millisecond},
		{60_000, 10 * time.Second}, // capped
	} {
		if got := sched.jobTimeout(Request{TimeoutMS: tc.ms}); got != tc.want {
			t.Errorf("jobTimeout(%dms) = %s, want %s", tc.ms, got, tc.want)
		}
	}
	if _, err := (&Request{Experiment: "table1", TimeoutMS: -1}).Key(); err == nil {
		t.Error("negative timeout_ms accepted")
	}
	// The timeout must not perturb the content address: same work under a
	// different deadline is the same work.
	k1, err := (&Request{Experiment: "table1"}).Key()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := (&Request{Experiment: "table1", TimeoutMS: 5000}).Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("timeout_ms changed the result key")
	}
}

// TestSubmittedCounterExcludesRejections is the regression test for the
// counter bug: 429-rejected submissions must not inflate "submitted";
// they get their own "rejected" counter.
func TestSubmittedCounterExcludesRejections(t *testing.T) {
	gate := gateFaults{release: make(chan struct{})}
	sched := newRobustScheduler(t, SchedulerConfig{QueueDepth: 1, Workers: 1, Faults: gate}, "")

	// j1 occupies the worker (blocked on the gate), j2 the queue slot.
	st1, _, err := sched.Submit(Request{Experiment: "table1", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, _ := sched.Job(st1.ID)
		if st.State == JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, _, err := sched.Submit(Request{Experiment: "table1", Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sched.Submit(Request{Experiment: "table1", Seed: 3}); err != ErrQueueFull {
		t.Fatalf("third submit err = %v, want ErrQueueFull", err)
	}
	if got := sched.Counters().Get("submitted"); got != 2 {
		t.Fatalf("submitted = %d, want 2 (rejections must not count)", got)
	}
	if got := sched.Counters().Get("rejected"); got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
	close(gate.release)
}

// TestTerminalJobRetention is the regression test for the unbounded job
// table: terminal jobs beyond RetainJobs are evicted in submission
// order, active jobs never are, and evicted IDs 404.
func TestTerminalJobRetention(t *testing.T) {
	sched := newRobustScheduler(t, SchedulerConfig{RetainJobs: 2}, "")

	var ids []string
	for seed := int64(1); seed <= 5; seed++ {
		st, _, err := sched.Submit(Request{Experiment: "table1", Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, sched, st.ID)
		ids = append(ids, st.ID)
	}

	jobs := sched.Jobs()
	if len(jobs) != 2 {
		t.Fatalf("retained %d jobs, want 2: %+v", len(jobs), jobs)
	}
	if jobs[0].ID != ids[3] || jobs[1].ID != ids[4] {
		t.Fatalf("retained %s,%s; want the newest %s,%s", jobs[0].ID, jobs[1].ID, ids[3], ids[4])
	}
	for _, id := range ids[:3] {
		if _, err := sched.Job(id); err != ErrUnknownJob {
			t.Errorf("evicted job %s still served (err %v)", id, err)
		}
	}
	counts := sched.JobCounts()
	if counts[JobDone] != 2 {
		t.Errorf("done gauge = %d, want 2 after eviction", counts[JobDone])
	}
	// The monotonic counter keeps the full history.
	if got := sched.Counters().Get("done"); got != 5 {
		t.Errorf("done counter = %d, want 5", got)
	}
}

// TestRetentionNeverEvictsActive: a running job older than every terminal
// job survives eviction pressure.
func TestRetentionNeverEvictsActive(t *testing.T) {
	gate := gateFaults{release: make(chan struct{})}
	sched := newRobustScheduler(t, SchedulerConfig{RetainJobs: 1, Workers: 1, QueueDepth: 8, Faults: gate}, "")

	// Oldest job wedges in running; younger jobs complete... but they
	// complete only after the gate opens (Workers=1), so use cache hits:
	// pre-store results so submissions are born terminal.
	running, _, err := sched.Submit(Request{Experiment: "table1", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, _ := sched.Job(running.ID)
		if st.State == JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	// Born-done cache hits pile terminal jobs behind the running one.
	key2, _ := (&Request{Experiment: "table1", Seed: 2}).Key()
	key3, _ := (&Request{Experiment: "table1", Seed: 3}).Key()
	sched.Store().Put(key2, Request{Experiment: "table1", Seed: 2}, testTable("t2"))
	sched.Store().Put(key3, Request{Experiment: "table1", Seed: 3}, testTable("t3"))
	for seed := int64(2); seed <= 3; seed++ {
		if st, _, err := sched.Submit(Request{Experiment: "table1", Seed: seed}); err != nil || st.State != JobDone {
			t.Fatalf("cache-hit submit: state=%v err=%v", st.State, err)
		}
	}

	if _, err := sched.Job(running.ID); err != nil {
		t.Fatalf("active job evicted: %v", err)
	}
	counts := sched.JobCounts()
	if counts[JobRunning] != 1 || counts[JobDone] != 1 {
		t.Fatalf("counts = %+v, want 1 running + 1 done retained", counts)
	}
	close(gate.release)
}

// TestSchedulerReplayRestore: journal-recovered jobs re-enqueue exactly
// once, keep their IDs, bump attempts for the interrupted one, and new
// submissions allocate IDs past every recovered one.
func TestSchedulerReplayRestore(t *testing.T) {
	replay := []ReplayJob{
		{ID: "j000004", Key: mustKey(t, Request{Experiment: "table1", Seed: 4}), Request: Request{Experiment: "table1", Seed: 4}, Attempt: 1, Interrupted: true},
		{ID: "j000007", Key: mustKey(t, Request{Experiment: "table1", Seed: 7}), Request: Request{Experiment: "table1", Seed: 7}, Attempt: 0},
	}
	sched := newRobustScheduler(t, SchedulerConfig{Replay: replay}, "")

	for _, rj := range replay {
		st := waitTerminal(t, sched, rj.ID)
		if st.State != JobDone {
			t.Fatalf("replayed %s finished %s: %s", rj.ID, st.State, st.Error)
		}
		if !st.Replayed {
			t.Errorf("replayed %s not flagged", rj.ID)
		}
	}
	if st, _ := sched.Job("j000004"); st.Attempts != 2 {
		t.Errorf("interrupted job attempts = %d, want 2 (crash run + rerun)", st.Attempts)
	}
	if st, _ := sched.Job("j000007"); st.Attempts != 1 {
		t.Errorf("queued job attempts = %d, want 1", st.Attempts)
	}
	c := sched.Counters()
	if c.Get("replayed") != 2 || c.Get("interrupted") != 1 {
		t.Errorf("replayed/interrupted = %d/%d, want 2/1", c.Get("replayed"), c.Get("interrupted"))
	}
	if c.Get("done") != 2 || c.Get("simulated") != 2 {
		t.Errorf("done/simulated = %d/%d, want 2/2 (each survivor runs exactly once)", c.Get("done"), c.Get("simulated"))
	}

	// Fresh IDs continue past the recovered ones.
	st, _, err := sched.Submit(Request{Experiment: "table1", Seed: 100})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "j000008" {
		t.Errorf("new job ID %s, want j000008 (past recovered j000007)", st.ID)
	}
}

// TestReplayAttemptsExhausted: a job whose attempts were already burned
// across previous incarnations fails immediately on restore instead of
// crash-looping forever.
func TestReplayAttemptsExhausted(t *testing.T) {
	rj := ReplayJob{ID: "j000001", Key: mustKey(t, Request{Experiment: "table1"}),
		Request: Request{Experiment: "table1"}, Attempt: 3, Interrupted: true}
	sched := newRobustScheduler(t, SchedulerConfig{Replay: []ReplayJob{rj}, MaxAttempts: 3}, "")
	st := waitTerminal(t, sched, rj.ID)
	if st.State != JobFailed || st.ErrorKind != ErrKindTransient {
		t.Fatalf("state=%s kind=%s, want failed/transient", st.State, st.ErrorKind)
	}
	if !strings.Contains(st.Error, "attempts exhausted") {
		t.Fatalf("error %q", st.Error)
	}
	if got := sched.Counters().Get("simulated"); got != 0 {
		t.Fatalf("exhausted job still simulated %d times", got)
	}
}

// TestReplayServedFromStore: a job that persisted its result but crashed
// before the terminal journal record completes from the store on
// restore, without re-running.
func TestReplayServedFromStore(t *testing.T) {
	dir := t.TempDir()
	req := Request{Experiment: "table1", Seed: 9}
	key := mustKey(t, req)
	seed, err := NewStore(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Put(key, req, testTable("already-persisted")); err != nil {
		t.Fatal(err)
	}

	rj := ReplayJob{ID: "j000002", Key: key, Request: req, Attempt: 1, Interrupted: true}
	sched := newRobustScheduler(t, SchedulerConfig{Replay: []ReplayJob{rj}}, dir)
	st := waitTerminal(t, sched, rj.ID)
	if st.State != JobDone || !st.CacheHit {
		t.Fatalf("state=%s cacheHit=%v, want done cache hit", st.State, st.CacheHit)
	}
	if got := sched.Counters().Get("simulated"); got != 0 {
		t.Fatalf("persisted job re-simulated %d times", got)
	}
}

// TestReadyzLifecycle: readiness is distinct from liveness — 503 with
// Retry-After during drain while healthz stays 200.
func TestReadyzLifecycle(t *testing.T) {
	ts, sched := newTestServer(t, SchedulerConfig{}, "")

	resp, err := http.Get(ts.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d, want 200", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sched.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	resp, err = http.Get(ts.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining readyz missing Retry-After")
	}
	if code := getJSON(t, ts.URL+"/v1/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz during drain = %d, want 200 (liveness != readiness)", code)
	}

	// Submissions during drain carry Retry-After too.
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"experiment":"table1"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("drain submit = %d (Retry-After %q), want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// TestPersistFailureRetries: a store.persist fault is a transient job
// failure — retried, then succeeding once the injection budget runs out —
// and the disk-error counter sees every failure.
func TestPersistFailureRetries(t *testing.T) {
	inj := faultinject.New(1)
	inj.Set("store.persist", faultinject.Rule{Nth: 1, Limit: 2})
	sched := newRobustScheduler(t, SchedulerConfig{Faults: inj, MaxAttempts: 3}, t.TempDir())

	st, _, err := sched.Submit(Request{Experiment: "table1"})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, sched, st.ID)
	if final.State != JobDone {
		t.Fatalf("job %s (%s), want done after persist retries", final.State, final.Error)
	}
	if final.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", final.Attempts)
	}
	if got := sched.Store().DiskErrors(); got != 2 {
		t.Fatalf("disk errors = %d, want 2", got)
	}
	if _, ok := sched.Store().Get(st.ResultKey); !ok {
		t.Fatal("result missing after successful retry")
	}
}

func mustKey(t *testing.T, req Request) string {
	t.Helper()
	k, err := req.Key()
	if err != nil {
		t.Fatal(err)
	}
	return k
}
