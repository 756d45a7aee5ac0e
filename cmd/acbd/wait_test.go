package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"acb/internal/service"
)

// TestWaitJobLongPolls: submit -wait long-polls. Every status request
// carries a positive ?wait= duration, and the loop stops at the first
// terminal answer (running, then done: two requests).
func TestWaitJobLongPolls(t *testing.T) {
	var calls int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/jobs/j000001" {
			t.Errorf("status request for %s, want /v1/jobs/j000001", r.URL.Path)
		}
		if d, err := time.ParseDuration(r.URL.Query().Get("wait")); err != nil || d <= 0 {
			t.Errorf("status request %s carries no positive wait=", r.URL)
		}
		st := service.JobStatus{ID: "j000001", State: service.JobRunning}
		if atomic.AddInt32(&calls, 1) > 1 {
			st.State, st.ResultKey = service.JobDone, "k"
		}
		json.NewEncoder(w).Encode(st)
	}))
	defer ts.Close()

	job, err := waitJob(ts.Client(), ts.URL, service.JobStatus{ID: "j000001", State: service.JobQueued})
	if err != nil || job.State != service.JobDone || job.ResultKey != "k" {
		t.Fatalf("waitJob = %+v, %v; want done with key k", job, err)
	}
	if n := atomic.LoadInt32(&calls); n != 2 {
		t.Errorf("waitJob made %d status requests, want 2 (running, then done)", n)
	}
}
