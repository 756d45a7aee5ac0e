package cluster

import (
	"context"
	"testing"
	"time"

	"acb/internal/service"
	"acb/internal/stats"
)

// TestJobTableContract drives both roles through service.JobTable and
// holds them to one contract: an in-flight duplicate returns the same
// job, a stored key is born done as a cache hit, retention evicts the
// oldest terminal job and never an active one, a queued job cancels at
// once, and result_key is set from submission.
func TestJobTableContract(t *testing.T) {
	for _, role := range []struct {
		name  string
		start func(t *testing.T) (service.JobTable, *service.Store)
	}{
		{"node", func(t *testing.T) (service.JobTable, *service.Store) {
			// The first job wedges the only worker, so later ones stay queued.
			gate := gateFaults{release: make(chan struct{})}
			store, err := service.NewStore(16, "")
			if err != nil {
				t.Fatal(err)
			}
			sched := service.NewScheduler(service.SchedulerConfig{Workers: 1, RetainJobs: 2, Faults: gate}, store)
			t.Cleanup(func() {
				close(gate.release)
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				sched.Shutdown(ctx)
			})
			return sched, store
		}},
		{"coordinator", func(t *testing.T) (service.JobTable, *service.Store) {
			// Never started: no lane claims anything, so every job stays queued.
			store, err := service.NewStore(16, "")
			if err != nil {
				t.Fatal(err)
			}
			coord, err := New(Config{RetainJobs: 2, Workers: []Member{{Name: "w1", URL: "http://127.0.0.1:1"}}}, store)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { coord.Shutdown(context.Background()) })
			return coord, store
		}},
	} {
		t.Run(role.name, func(t *testing.T) {
			table, store := role.start(t)
			reqs := tableReqs(5)
			submit := func(i int) service.JobStatus {
				t.Helper()
				st, created, err := table.Submit(reqs[i])
				if err != nil || !created {
					t.Fatalf("submit %d: created=%v err=%v", i, created, err)
				}
				if st.ResultKey != mustKey(t, reqs[i]) {
					t.Errorf("submit %d: result_key %q, want the request's key at submission", i, st.ResultKey)
				}
				return st
			}

			active := submit(0)
			if active.State != service.JobQueued && active.State != service.JobRunning {
				t.Fatalf("fresh job born %s", active.State)
			}
			dup, created, err := table.Submit(reqs[0])
			if err != nil || created || dup.ID != active.ID {
				t.Fatalf("in-flight duplicate: %s created=%v err=%v, want %s", dup.ID, created, err, active.ID)
			}

			var hits []string
			for i := 1; i <= 3; i++ {
				tab := stats.NewTable("k", "v")
				tab.AddRow("cached", 1.5)
				if err := store.Put(mustKey(t, reqs[i]), reqs[i], tab); err != nil {
					t.Fatal(err)
				}
				st := submit(i)
				if st.State != service.JobDone || !st.CacheHit {
					t.Fatalf("stored key %d: state %s cache_hit=%v, want born done as a cache hit", i, st.State, st.CacheHit)
				}
				hits = append(hits, st.ID)
			}
			// RetainJobs 2: the oldest cache hit is gone, the older active job stays.
			if _, err := table.Job(hits[0]); err != service.ErrUnknownJob {
				t.Errorf("oldest terminal job %s not evicted (err %v)", hits[0], err)
			}
			for _, id := range []string{active.ID, hits[1], hits[2]} {
				if _, err := table.Job(id); err != nil {
					t.Errorf("job %s evicted: %v", id, err)
				}
			}

			queued := submit(4)
			if queued.State != service.JobQueued {
				t.Fatalf("job behind a busy executor is %s, want queued", queued.State)
			}
			st, err := table.Cancel(queued.ID)
			if err != nil || st.State != service.JobCancelled {
				t.Fatalf("cancel queued job: %s err=%v, want cancelled at once", st.State, err)
			}
			if st.ResultKey != mustKey(t, reqs[4]) {
				t.Errorf("cancelled job lost its result_key: %q", st.ResultKey)
			}
			if _, err := table.Job(active.ID); err != nil {
				t.Errorf("active job evicted: %v", err)
			}
		})
	}
}

// gateFaults blocks a worker's run at the "worker" injection point until
// release is closed.
type gateFaults struct{ release chan struct{} }

func (g gateFaults) Fire(point string) error {
	if point == "worker" {
		<-g.release
	}
	return nil
}
