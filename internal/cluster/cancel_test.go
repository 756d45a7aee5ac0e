package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"acb/internal/faultinject"
	"acb/internal/service"
)

// slowWorker returns an injector that stalls every job run by d.
func slowWorker(d time.Duration) map[string]service.FaultPoints {
	inj := faultinject.New(1)
	inj.Set("worker.slow", faultinject.Rule{Kind: faultinject.Slow, Nth: 1, Delay: d})
	return map[string]service.FaultPoints{"w1": inj}
}

// waitState polls the coordinator until job id reaches want.
func waitState(t *testing.T, coord *Coordinator, id string, want service.JobState) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := coord.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s, want %s", id, st.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// workerJob returns the one job worker n holds for key.
func workerJob(t *testing.T, n *testNode, key string) service.JobStatus {
	t.Helper()
	for _, st := range n.sched.Jobs() {
		if st.ResultKey == key {
			return st
		}
	}
	t.Fatalf("%s holds no job for key %.12s", n.name, key)
	return service.JobStatus{}
}

// TestCoordinatorCancelQueued: a job no lane has claimed cancels on the
// spot through DELETE /v1/jobs/{id} on the coordinator and never reaches
// a worker. The worker runs two jobs at once, so it gets three lanes and
// the fourth job waits in the coordinator's queue.
func TestCoordinatorCancelQueued(t *testing.T) {
	nodes := startWorkers(t, []string{"w1"}, service.SchedulerConfig{Workers: 2}, slowWorker(400*time.Millisecond))
	coord, ts := startCoordinator(t, nodes, Config{})

	reqs := tableReqs(4)
	var ids []string
	for _, req := range reqs {
		st, _, err := coord.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	deadline := time.Now().Add(10 * time.Second)
	for coord.Members()[0].Jobs < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("worker never got its three lanes' jobs: %+v", coord.Members())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st, _ := coord.Job(ids[3]); st.Worker != "" || st.State != service.JobQueued {
		t.Fatalf("fourth job left the queue with every lane busy: %+v", st)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+ids[3], nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || st.State != service.JobCancelled {
		t.Fatalf("DELETE queued job: status %d, %+v, err=%v", resp.StatusCode, st, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, id := range ids[:3] {
		if fin, err := coord.Wait(ctx, id); err != nil || fin.State != service.JobDone {
			t.Fatalf("job %s: %+v err=%v", id, fin, err)
		}
	}
	key := mustKey(t, reqs[3])
	for _, w := range nodes["w1"].sched.Jobs() {
		if w.ResultKey == key {
			t.Errorf("cancelled-while-queued job reached the worker as %s", w.ID)
		}
	}
}

// TestCoordinatorCancelRunning: cancelling a job its worker is running
// ends it cancelled on the worker and on the coordinator, with exactly
// one terminal journal record.
func TestCoordinatorCancelRunning(t *testing.T) {
	nodes := startWorkers(t, []string{"w1"}, service.SchedulerConfig{Workers: 1}, slowWorker(500*time.Millisecond))
	path := filepath.Join(t.TempDir(), "cluster.journal")
	journal, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	coord, _ := startCoordinator(t, nodes, Config{Journal: journal})

	req := tableReqs(1)[0]
	st, _, err := coord.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, coord, st.ID, service.JobRunning)
	if _, err := coord.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	fin, err := coord.Wait(ctx, st.ID)
	if err != nil || fin.State != service.JobCancelled {
		t.Fatalf("coordinator job: %+v err=%v", fin, err)
	}
	if w := workerJob(t, nodes["w1"], mustKey(t, req)); w.State != service.JobCancelled {
		t.Errorf("worker job %s is %s, want cancelled", w.ID, w.State)
	}

	// Shutdown waits for every lane, so no record can land after it.
	if err := coord.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	terminal := 0
	for _, op := range []string{"done", "failed", "cancelled"} {
		terminal += strings.Count(string(b), `{"op":"`+op+`","id":"`+st.ID+`"`)
	}
	if terminal != 1 || !strings.Contains(string(b), `{"op":"cancelled","id":"`+st.ID+`"`) {
		t.Errorf("journal holds %d terminal records for %s, want one cancelled:\n%s", terminal, st.ID, b)
	}
}

// TestCoordinatorCancelThroughPartition: a cancel requested while every
// RPC to the job's worker fails still reaches the worker once the fault
// rule's limit runs out, and the job ends cancelled on both sides.
func TestCoordinatorCancelThroughPartition(t *testing.T) {
	nodes := startWorkers(t, []string{"w1"}, service.SchedulerConfig{Workers: 1}, slowWorker(time.Second))
	partition := faultinject.New(1)
	coord, _ := startCoordinator(t, nodes, Config{Faults: partition, DeadAfter: 20})

	req := tableReqs(1)[0]
	st, _, err := coord.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, coord, st.ID, service.JobRunning)
	const failures = 6
	partition.Set("rpc.w1", faultinject.Rule{Nth: 1, Limit: failures})
	if _, err := coord.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	fin, err := coord.Wait(ctx, st.ID)
	if err != nil || fin.State != service.JobCancelled {
		t.Fatalf("coordinator job: %+v err=%v", fin, err)
	}
	if got := partition.Counts()["rpc.w1"]; got != failures {
		t.Errorf("partition failed %d RPCs, want its whole limit of %d", got, failures)
	}
	if w := workerJob(t, nodes["w1"], mustKey(t, req)); w.State != service.JobCancelled {
		t.Errorf("worker job %s is %s, want cancelled", w.ID, w.State)
	}
	if dead := coord.Counters().Get("worker_dead"); dead != 0 {
		t.Errorf("worker_dead = %d: the partition outlived DeadAfter", dead)
	}
}
