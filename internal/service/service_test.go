package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"acb/internal/experiments"
	"acb/internal/faultinject"
	"acb/internal/workload"
)

// newTestServer spins up a scheduler+API over an httptest server and
// tears both down with the test.
func newTestServer(t *testing.T, cfg SchedulerConfig, dir string) (*httptest.Server, *Scheduler) {
	t.Helper()
	store, err := NewStore(16, dir)
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(cfg, store)
	ts := httptest.NewServer(NewServer(sched).Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		sched.Shutdown(ctx)
	})
	return ts, sched
}

func postJob(t *testing.T, ts *httptest.Server, req Request) (submitResponse, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var sr submitResponse
	if resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(b, &sr); err != nil {
			t.Fatalf("submit response %q: %v", b, err)
		}
	}
	return sr, resp.StatusCode
}

func getJSON(t *testing.T, url string, v interface{}) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil && resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(b, v); err != nil {
			t.Fatalf("decode %q: %v", b, err)
		}
	}
	return resp.StatusCode
}

func pollDone(t *testing.T, ts *httptest.Server, id string, within time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		var st JobStatus
		if code := getJSON(t, ts.URL+"/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, code)
		}
		switch st.State {
		case JobDone, JobFailed, JobCancelled:
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %s", id, st.State, within)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServiceEndToEnd drives the full loop over HTTP: submit a fig-style
// job, poll it to completion, fetch the result — which must be
// byte-identical to a direct experiments call — then resubmit the
// identical request and observe a cache hit that runs no new simulation.
func TestServiceEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	ts, sched := newTestServer(t, SchedulerConfig{SimJobs: 4}, t.TempDir())

	req := Request{Experiment: "fig6", Workloads: []string{"lammps", "compression"}, Budget: 40_000}
	sr, code := postJob(t, ts, req)
	if code != http.StatusCreated {
		t.Fatalf("submit status = %d, want 201", code)
	}
	if sr.Deduped || sr.CacheHit {
		t.Fatalf("fresh submit flagged deduped=%v cacheHit=%v", sr.Deduped, sr.CacheHit)
	}

	st := pollDone(t, ts, sr.ID, 2*time.Minute)
	if st.State != JobDone {
		t.Fatalf("job finished %s: %s", st.State, st.Error)
	}

	resp, err := http.Get(ts.URL + "/v1/results/" + st.ResultKey)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result: %d %s", resp.StatusCode, body)
	}

	// Byte-identical to the direct harness call, at a different job count
	// (the runner guarantees scheduling-independent aggregation).
	opts := experiments.DefaultOptions()
	opts.Budget = req.Budget
	opts.Jobs = 1
	for _, n := range req.Workloads {
		w, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		opts.Workloads = append(opts.Workloads, w)
	}
	direct, err := experiments.Run("fig6", opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("service result differs from direct experiments run:\n%s\nvs\n%s", body, want)
	}

	// Other render formats come from the same table.
	var csv string
	{
		resp, err := http.Get(ts.URL + "/v1/results/" + st.ResultKey + "?format=csv")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		csv = string(b)
	}
	if csv != direct.CSV() {
		t.Fatalf("csv format differs:\n%q\nvs\n%q", csv, direct.CSV())
	}

	// Identical resubmit: served from the store, no new simulation.
	simsBefore := sched.RunnerStats().Jobs()
	sr2, code := postJob(t, ts, Request{Experiment: "fig6", Workloads: []string{"lammps", "compression"}, Budget: 40_000})
	if code != http.StatusOK {
		t.Fatalf("resubmit status = %d, want 200", code)
	}
	if !sr2.CacheHit || sr2.State != JobDone {
		t.Fatalf("resubmit not a cache hit: %+v", sr2.JobStatus)
	}
	if sr2.ID == sr.ID {
		t.Fatal("cache hit reused the original job ID")
	}
	if sr2.ResultKey != st.ResultKey {
		t.Fatal("identical request produced a different result key")
	}
	if sims := sched.RunnerStats().Jobs(); sims != simsBefore {
		t.Fatalf("cache hit ran %d new simulations", sims-simsBefore)
	}
	if got := sched.Counters().Get("cache_hits"); got != 1 {
		t.Fatalf("cache_hits = %d, want 1", got)
	}

	// Metrics reflect all of it.
	mresp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	metrics := string(mb)
	for _, want := range []string{
		`acbd_events_total{event="cache_hits"} 1`,
		`acbd_events_total{event="simulated"} 1`,
		// 3 hits: the two result fetches above plus the cache-hit resubmit;
		// the single miss is the first submission's store probe.
		`acbd_store_lookups_total{outcome="hit"} 3`,
		`acbd_store_lookups_total{outcome="miss"} 1`,
		"acbd_effective_speedup",
		`acbd_jobs{state="done"} 2`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// Healthz.
	if code := getJSON(t, ts.URL+"/v1/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
}

// TestServiceSingleFlightDedup: an identical request submitted while the
// first is still in flight coalesces onto the same job instead of
// queueing duplicate work.
func TestServiceSingleFlightDedup(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	ts, sched := newTestServer(t, SchedulerConfig{}, "")

	// Big enough to still be in flight when the duplicate arrives.
	req := Request{Experiment: "census", Workloads: []string{"gobmk"}, Budget: 100_000_000}
	sr1, code := postJob(t, ts, req)
	if code != http.StatusCreated {
		t.Fatalf("submit = %d", code)
	}
	sr2, code := postJob(t, ts, Request{Experiment: "census", Workloads: []string{"gobmk"}, Budget: 100_000_000})
	if code != http.StatusOK {
		t.Fatalf("duplicate submit = %d, want 200", code)
	}
	if !sr2.Deduped || sr2.ID != sr1.ID {
		t.Fatalf("duplicate not coalesced: first=%s second=%+v", sr1.ID, sr2)
	}
	if got := sched.Counters().Get("deduped"); got != 1 {
		t.Fatalf("deduped counter = %d", got)
	}

	// Cancel rather than simulate 100M instructions.
	cancelJob(t, ts, sr1.ID)
	st := pollDone(t, ts, sr1.ID, 30*time.Second)
	if st.State != JobCancelled {
		t.Fatalf("state = %s, want cancelled", st.State)
	}
}

func cancelJob(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel %s: %d", id, resp.StatusCode)
	}
}

// TestServiceCancelMidSimulation: cancelling a running job halts the
// simulation long before its retired-instruction budget is exhausted.
func TestServiceCancelMidSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	ts, _ := newTestServer(t, SchedulerConfig{}, "")

	// ~200M retired instructions: many minutes of simulation uncancelled.
	sr, code := postJob(t, ts, Request{Experiment: "census", Workloads: []string{"lammps"}, Budget: 200_000_000})
	if code != http.StatusCreated {
		t.Fatalf("submit = %d", code)
	}
	// Wait for it to actually be running.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st JobStatus
		getJSON(t, ts.URL+"/v1/jobs/"+sr.ID, &st)
		if st.State == JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started running (state %s)", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}

	start := time.Now()
	cancelJob(t, ts, sr.ID)
	st := pollDone(t, ts, sr.ID, 30*time.Second)
	if st.State != JobCancelled {
		t.Fatalf("state = %s (err %q), want cancelled", st.State, st.Error)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation took %s", elapsed)
	}
	if !strings.Contains(st.Error, "cancel") {
		t.Fatalf("cancelled job error = %q", st.Error)
	}

	// The result of a cancelled job must not have been stored.
	if code := getJSON(t, ts.URL+"/v1/results/"+st.ResultKey, nil); code != http.StatusNotFound {
		t.Fatalf("cancelled job's result served: %d", code)
	}
}

// TestServiceBackpressure: the bounded queue rejects submissions beyond
// capacity with 429 while the worker is busy.
func TestServiceBackpressure(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	ts, _ := newTestServer(t, SchedulerConfig{QueueDepth: 1, Workers: 1}, "")

	// Occupy the worker, then fill the queue slot; each request must be
	// distinct or dedup would absorb it.
	long := func(seed int64) Request {
		return Request{Experiment: "census", Workloads: []string{"lammps"}, Budget: 100_000_000, Seed: seed}
	}
	first, code := postJob(t, ts, long(1))
	if code != http.StatusCreated {
		t.Fatalf("submit 1 = %d", code)
	}
	// Wait until the first job leaves the queue for the worker.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st JobStatus
		getJSON(t, ts.URL+"/v1/jobs/"+first.ID, &st)
		if st.State == JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(10 * time.Millisecond)
	}
	queued, code := postJob(t, ts, long(2))
	if code != http.StatusCreated {
		t.Fatalf("submit 2 = %d", code)
	}
	if _, code := postJob(t, ts, long(3)); code != http.StatusTooManyRequests {
		t.Fatalf("submit 3 = %d, want 429 backpressure", code)
	}
	cancelJob(t, ts, first.ID)
	cancelJob(t, ts, queued.ID)
	pollDone(t, ts, first.ID, 30*time.Second)
	if st := pollDone(t, ts, queued.ID, 30*time.Second); st.State != JobCancelled {
		t.Fatalf("queued job = %s, want cancelled without ever running", st.State)
	}
}

// TestSchedulerShutdownDrains: Shutdown completes queued work before
// returning, and the drained results are persisted in the store.
func TestSchedulerShutdownDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	dir := t.TempDir()
	store, err := NewStore(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(SchedulerConfig{SimJobs: 4}, store)

	st, created, err := sched.Submit(Request{Experiment: "census", Workloads: []string{"lammps"}, Budget: 40_000})
	if err != nil || !created {
		t.Fatalf("submit: created=%v err=%v", created, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := sched.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	final, err := sched.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != JobDone {
		t.Fatalf("after drain job is %s (%s), want done", final.State, final.Error)
	}
	if _, ok := store.Get(st.ResultKey); !ok {
		t.Fatal("drained result missing from store")
	}

	// Submissions after shutdown are refused.
	if _, _, err := sched.Submit(Request{Experiment: "table1"}); err == nil {
		t.Fatal("submit accepted after shutdown")
	}
}

// TestSchedulerShutdownTimeoutCancels: when the drain budget expires,
// running simulations are cancelled rather than run to completion.
func TestSchedulerShutdownTimeoutCancels(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	store, err := NewStore(4, "")
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(SchedulerConfig{}, store)
	st, _, err := sched.Submit(Request{Experiment: "census", Workloads: []string{"lammps"}, Budget: 200_000_000})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = sched.Shutdown(ctx)
	if err == nil {
		t.Fatal("shutdown drained a 200M-instruction job in 200ms?")
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("forced shutdown took %s", elapsed)
	}
	final, err := sched.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != JobCancelled {
		t.Fatalf("after forced shutdown job is %s, want cancelled", final.State)
	}
}

// TestServiceRejectsBadRequests covers the 400/404 surfaces.
func TestServiceRejectsBadRequests(t *testing.T) {
	ts, _ := newTestServer(t, SchedulerConfig{}, "")

	for _, body := range []string{
		`{"experiment":"fig99"}`,
		`{"experiment":"fig6","workloads":["nope"]}`,
		`{"experiment":"fig6","config":"nope"}`,
		`{"experiment":"fig6","unknown_field":1}`,
		`{not json`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s = %d, want 400", body, resp.StatusCode)
		}
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/j999999", nil); code != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/v1/results/"+testKey(5), nil); code != http.StatusNotFound {
		t.Errorf("unknown result = %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/v1/results/../../etc/passwd", nil); code == http.StatusOK {
		t.Error("path traversal served a result")
	}
}

// TestServiceTableJobsNoBudget: metadata-only experiments (table1) run
// instantly and flow through the same job/result machinery.
func TestServiceTableJobsNoBudget(t *testing.T) {
	ts, _ := newTestServer(t, SchedulerConfig{}, "")
	sr, code := postJob(t, ts, Request{Experiment: "table1"})
	if code != http.StatusCreated {
		t.Fatalf("submit = %d", code)
	}
	st := pollDone(t, ts, sr.ID, 30*time.Second)
	if st.State != JobDone {
		t.Fatalf("table1 job %s: %s", st.State, st.Error)
	}
	var tab struct {
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
	}
	if code := getJSON(t, ts.URL+"/v1/results/"+st.ResultKey, &tab); code != http.StatusOK {
		t.Fatalf("result = %d", code)
	}
	if len(tab.Rows) == 0 || tab.Rows[len(tab.Rows)-1][1] != "386" {
		t.Fatalf("table1 rows = %v", tab.Rows)
	}
}

// TestJobStatusJSONShape pins the API field names clients depend on.
func TestJobStatusJSONShape(t *testing.T) {
	now := time.Now()
	b, err := json.Marshal(JobStatus{ID: "j000001", State: JobRunning, Experiment: "fig6",
		Request: Request{Experiment: "fig6"}, ResultKey: testKey(0), Created: now, Started: &now,
		Attempts: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"id"`, `"state"`, `"experiment"`, `"request"`, `"result_key"`, `"created"`, `"started"`, `"attempts"`} {
		if !bytes.Contains(b, []byte(field)) {
			t.Errorf("JobStatus JSON missing %s: %s", field, b)
		}
	}
	if bytes.Contains(b, []byte(`"finished"`)) {
		t.Errorf("unfinished job serialized a finished time: %s", b)
	}

	// A failed job carries its error classification; a healthy one omits it.
	b, err = json.Marshal(JobStatus{ID: "j000002", State: JobFailed, Error: "boom",
		ErrorKind: ErrKindTransient, Attempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"error"`, `"error_kind"`} {
		if !bytes.Contains(b, []byte(field)) {
			t.Errorf("failed JobStatus JSON missing %s: %s", field, b)
		}
	}
	b, _ = json.Marshal(JobStatus{ID: "j000003", State: JobDone})
	if bytes.Contains(b, []byte(`"error_kind"`)) {
		t.Errorf("healthy job serialized an error kind: %s", b)
	}
}

// TestServiceLongPoll: GET /v1/jobs/{id}?wait=D answers once the job is
// terminal — one request instead of a poll loop — or with the live state
// when D runs out first. A malformed or negative wait is a 400, an
// unknown job a 404, and the listing reports the job concurrency.
func TestServiceLongPoll(t *testing.T) {
	inj := faultinject.New(1)
	inj.Set("worker.slow", faultinject.Rule{Kind: faultinject.Slow, Nth: 1, Delay: 300 * time.Millisecond})
	ts, _ := newTestServer(t, SchedulerConfig{Workers: 2, Faults: inj}, "")

	first, code := postJob(t, ts, Request{Experiment: "table1", Seed: 1})
	if code != http.StatusCreated {
		t.Fatalf("submit = %d", code)
	}
	second, _ := postJob(t, ts, Request{Experiment: "table1", Seed: 2})
	var st JobStatus
	if code := getJSON(t, ts.URL+"/v1/jobs/"+second.ID+"?wait=10ms", &st); code != http.StatusOK || st.State == JobDone {
		t.Errorf("short wait on a 300ms job = %d %s, want 200 and not yet done", code, st.State)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+first.ID+"?wait=30s", &st); code != http.StatusOK || st.State != JobDone {
		t.Fatalf("long-poll = %d %s, want 200 done", code, st.State)
	}

	for _, q := range []string{"soon", "-1s", "5"} {
		if code := getJSON(t, ts.URL+"/v1/jobs/"+first.ID+"?wait="+q, nil); code != http.StatusBadRequest {
			t.Errorf("wait=%s = %d, want 400", q, code)
		}
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/j999999?wait=1s", nil); code != http.StatusNotFound {
		t.Errorf("long-poll on an unknown job = %d, want 404", code)
	}
	var list struct {
		Workers int `json:"workers"`
	}
	if code := getJSON(t, ts.URL+"/v1/jobs", &list); code != http.StatusOK || list.Workers != 2 {
		t.Errorf("listing = %d, workers %d, want 200 and 2", code, list.Workers)
	}
}

// TestServiceSubmitBodyLimit: a POST /v1/jobs body over MaxRequestBytes
// is refused with 413 while it is read.
func TestServiceSubmitBodyLimit(t *testing.T) {
	ts, _ := newTestServer(t, SchedulerConfig{}, "")
	body := `{"experiment":"table1","workloads":["` + strings.Repeat("x", MaxRequestBytes) + `"]}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized submit = %d, want 413", resp.StatusCode)
	}
}
