package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"acb/internal/faultinject"
	"acb/internal/service"
)

// simulatedTotal sums the fleet's successful simulations — the
// exactly-once oracle: across any number of coordinator crashes and
// takeovers, n distinct jobs must cost exactly n simulations.
func simulatedTotal(nodes map[string]*testNode) int64 {
	var total int64
	for _, n := range nodes {
		total += n.sched.Counters().Get("simulated")
	}
	return total
}

func waitDone(t *testing.T, count func() int, want int, what string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for count() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: only %d/%d", what, count(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCoordinatorJournalRestart: a journaled coordinator dies mid-sweep
// (shutdown writes no terminal records — for the journal, shutdown is a
// crash); a successor opened from the same journal restores every job
// under its original ID, reconciles completed work off the workers
// instead of re-running it, and finishes the sweep with exactly one
// simulation per job.
func TestCoordinatorJournalRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node simulation sweep")
	}
	slow := func() *faultinject.Injector {
		inj := faultinject.New(1)
		inj.Set("worker.slow", faultinject.Rule{Kind: faultinject.Slow, Nth: 1, Delay: 400 * time.Millisecond})
		return inj
	}
	nodes := startWorkers(t, []string{"w1", "w2"}, service.SchedulerConfig{Workers: 1},
		map[string]service.FaultPoints{"w1": slow(), "w2": slow()})
	path := filepath.Join(t.TempDir(), "cluster.journal")
	journal, replay, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(replay) != 0 {
		t.Fatalf("fresh journal replayed %d jobs", len(replay))
	}
	coordA, _ := startCoordinator(t, nodes, Config{Node: "ca", Journal: journal})

	reqs := tableReqs(6)
	ids := make([]string, 0, len(reqs))
	for _, req := range reqs {
		st, _, err := coordA.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	waitDone(t, func() int { return coordA.JobCounts()[service.JobDone] }, 2, "pre-crash completions")

	// Die mid-sweep, with jobs in every state: done, running, queued.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := coordA.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	journal2, replay, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(replay) != len(reqs) {
		t.Fatalf("replayed %d jobs, want %d", len(replay), len(reqs))
	}
	terminal := 0
	for _, rj := range replay {
		if rj.State.Terminal() {
			terminal++
		}
	}
	if terminal < 2 {
		t.Fatalf("replay carries %d terminal jobs, want >= 2", terminal)
	}

	coordB, _ := startCoordinator(t, nodes, Config{Node: "ca", Journal: journal2, Replay: replay})
	if coordB.Counters().Get("journal_replays") != 1 {
		t.Errorf("journal_replays = %d, want 1", coordB.Counters().Get("journal_replays"))
	}
	wctx, wcancel := context.WithTimeout(context.Background(), time.Minute)
	defer wcancel()
	for _, id := range ids { // original IDs survive the restart
		fin, err := coordB.Wait(wctx, id)
		if err != nil || fin.State != service.JobDone {
			t.Fatalf("job %s after restart: %+v err=%v", id, fin, err)
		}
	}
	if got := simulatedTotal(nodes); got != int64(len(reqs)) {
		t.Errorf("fleet simulated %d jobs for %d requests: restart re-ran work", got, len(reqs))
	}
}

// TestStandbyPromotion is the failover acceptance path: a warm standby
// tails the primary's journal stream; the primary is killed mid-batch;
// the standby promotes at a higher epoch, finishes the sweep without
// re-running completed work, serves byte-identical results, and the old
// primary — still running — is fenced off by the workers.
func TestStandbyPromotion(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node simulation sweep")
	}
	slow := func() *faultinject.Injector {
		inj := faultinject.New(1)
		inj.Set("worker.slow", faultinject.Rule{Kind: faultinject.Slow, Nth: 1, Delay: 200 * time.Millisecond})
		return inj
	}
	nodes := startWorkers(t, []string{"w1", "w2"}, service.SchedulerConfig{Workers: 1},
		map[string]service.FaultPoints{"w1": slow(), "w2": slow()})

	dir := t.TempDir()
	journalA, _, err := OpenJournal(filepath.Join(dir, "primary.journal"))
	if err != nil {
		t.Fatal(err)
	}
	coordA, tsA := startCoordinator(t, nodes, Config{Node: "ca", Epoch: 1, Journal: journalA})

	// The standby gets its own journal mirror and lease file, and the
	// same fleet view the primary has.
	scfg := Config{Node: "cb",
		ProbeInterval: 50 * time.Millisecond, PollInterval: 25 * time.Millisecond,
		ProbeTimeout: time.Second, RPCTimeout: 5 * time.Second, DeadAfter: 4}
	for name, n := range nodes {
		scfg.Workers = append(scfg.Workers, Member{Name: name, URL: n.url()})
	}
	lease, err := OpenLease(filepath.Join(dir, "standby.lease"), "cb")
	if err != nil {
		t.Fatal(err)
	}
	mirror := filepath.Join(dir, "standby.journal")
	stb, err := NewStandby(StandbyConfig{Primary: tsA.URL, JournalPath: mirror, Lease: lease, Cluster: scfg})
	if err != nil {
		t.Fatal(err)
	}
	stb.Start()
	tsB := httptest.NewServer(stb.Handler())
	t.Cleanup(func() {
		tsB.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		stb.Shutdown(ctx)
	})

	// While tailing: health yes, ready no, role visible.
	if code, _ := getBody(t, tsB.URL+"/v1/healthz"); code != http.StatusOK {
		t.Fatalf("standby healthz %d", code)
	}
	if code, body := getBody(t, tsB.URL+"/v1/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("standby readyz %d: %s", code, body)
	}
	var role struct {
		Role  string `json:"role"`
		Epoch uint64 `json:"epoch"`
	}
	if _, body := getBody(t, tsB.URL+"/v1/cluster"); json.Unmarshal(body, &role) != nil || role.Role != "standby" {
		t.Fatalf("standby /v1/cluster = %s", body)
	}

	reqs := tableReqs(8)
	ids := make([]string, 0, len(reqs))
	for _, req := range reqs {
		st, _, err := coordA.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	waitDone(t, func() int { return coordA.JobCounts()[service.JobDone] }, 2, "pre-kill completions")

	// Don't kill until the mirror provably holds every submission: the
	// stream is async, and a failover must not race the placements it is
	// supposed to preserve.
	waitDone(t, func() int {
		b, _ := os.ReadFile(mirror)
		return strings.Count(string(b), `"op":"submit"`)
	}, len(reqs), "mirrored submissions")

	// kill -9 the primary's listener. The coordinator goroutines keep
	// running — a partitioned, not stopped, primary — which is exactly
	// the split-brain scenario fencing exists for.
	tsA.CloseClientConnections()
	tsA.Close()

	deadline := time.Now().Add(15 * time.Second)
	for !stb.Promoted() {
		if time.Now().After(deadline) {
			t.Fatal("standby never promoted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	coordB := stb.Coordinator()
	if coordB == nil {
		t.Fatal("promoted standby has no coordinator")
	}
	if coordB.Epoch() <= coordA.Epoch() {
		t.Fatalf("promoted epoch %d not above primary's %d", coordB.Epoch(), coordA.Epoch())
	}
	if lease.Epoch() != coordB.Epoch() {
		t.Errorf("lease epoch %d, coordinator epoch %d: promotion not fsync'd", lease.Epoch(), coordB.Epoch())
	}

	// The same URL that served 503s now serves the coordinator API.
	wctx, wcancel := context.WithTimeout(context.Background(), time.Minute)
	defer wcancel()
	keys := make(map[string]string, len(ids))
	for _, id := range ids {
		fin, err := coordB.Wait(wctx, id)
		if err != nil || fin.State != service.JobDone {
			t.Fatalf("job %s after failover: %+v err=%v", id, fin, err)
		}
		keys[id] = fin.ResultKey
	}
	if got := simulatedTotal(nodes); got != int64(len(reqs)) {
		t.Errorf("fleet simulated %d jobs for %d requests: failover re-ran work", got, len(reqs))
	}

	ref := referenceResults(t, reqs)
	for id, key := range keys {
		code, got := getBody(t, tsB.URL+"/v1/results/"+key)
		if code != http.StatusOK {
			t.Fatalf("result %s (job %s) via promoted standby: status %d", key, id, code)
		}
		if !bytes.Equal(got, ref[key]) {
			t.Errorf("key %s: failover result differs from single-node run\ngot:  %s\nwant: %s", key, got, ref[key])
		}
	}

	// The zombie primary's probes bounce off the fence and it stands
	// down on its own.
	deadline = time.Now().Add(15 * time.Second)
	for !coordA.Fenced() {
		if time.Now().After(deadline) {
			t.Fatal("old primary never noticed it was fenced")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, _, err := coordA.Submit(service.Request{Experiment: "table1", Seed: 999}); !errors.Is(err, service.ErrShuttingDown) {
		t.Errorf("fenced primary accepted a submission (err=%v)", err)
	}
	rejected := int64(0)
	for _, n := range nodes {
		rejected += n.fence.Rejected()
	}
	if rejected == 0 {
		t.Error("no worker ever fenced a stale-epoch RPC")
	}
	if coordB.Counters().Get("failovers") != 1 {
		t.Errorf("failovers = %d, want 1", coordB.Counters().Get("failovers"))
	}

	// The promoted coordinator's scrape carries the dedicated failover
	// and replay families.
	code, metrics := getBody(t, tsB.URL+"/v1/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics via promoted standby: %d", code)
	}
	for _, want := range []string{
		`acbd_failovers_total{node="cb"} 1`,
		`acbd_journal_replays_total{node="cb"} 1`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("promoted metrics missing %s", want)
		}
	}
}

// TestStandbyPromotedImpliesCoordinator: Promoted must never report a
// takeover whose coordinator is not yet published. The standby's primary
// is unreachable from the start, so it promotes after DeadAfter probe
// intervals; the loop polls across the whole promotion (lease fsync,
// journal open, coordinator start), where the two used to disagree.
func TestStandbyPromotedImpliesCoordinator(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	dir := t.TempDir()
	lease, err := OpenLease(filepath.Join(dir, "standby.lease"), "cb")
	if err != nil {
		t.Fatal(err)
	}
	stb, err := NewStandby(StandbyConfig{
		Primary:     dead.URL,
		JournalPath: filepath.Join(dir, "standby.journal"),
		Lease:       lease,
		Cluster: Config{Node: "cb", ProbeInterval: 5 * time.Millisecond, DeadAfter: 2,
			Workers: []Member{{Name: "w1", URL: dead.URL}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	stb.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		stb.Shutdown(ctx)
	})
	deadline := time.Now().Add(10 * time.Second)
	for !stb.Promoted() {
		if time.Now().After(deadline) {
			t.Fatal("standby never promoted")
		}
	}
	if stb.Coordinator() == nil {
		t.Fatal("Promoted is true but Coordinator is nil")
	}
}

// TestLeaseFencing: the worker-side epoch protocol end to end against a
// live fleet — a higher-epoch coordinator appearing makes workers
// re-register (readyz 503 until listed) and turns the old primary into
// a bystander: probes rejected, fenced flag up, submissions refused.
func TestLeaseFencing(t *testing.T) {
	nodes := startWorkers(t, []string{"w1"}, service.SchedulerConfig{Workers: 1}, nil)
	coordA, _ := startCoordinator(t, nodes, Config{Node: "ca", Epoch: 1})
	w := nodes["w1"]

	// The primary's probes push epoch 1 onto the worker, and its first
	// reconcile listing completes the registration.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if ok, _ := w.fence.Ready(); ok && w.fence.Epoch() == 1 {
			break
		}
		if time.Now().After(deadline) {
			ok, reason := w.fence.Ready()
			t.Fatalf("worker never registered at epoch 1: epoch=%d ready=(%v,%q)", w.fence.Epoch(), ok, reason)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Epoch 2 appears (a promoted standby's first probe).
	get := func(path string, epoch string) *http.Response {
		req, _ := http.NewRequest(http.MethodGet, w.url()+path, nil)
		req.Header.Set(EpochHeader, epoch)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := get("/v1/healthz", "2"); resp.StatusCode != http.StatusOK {
		t.Fatalf("adopting probe status %d", resp.StatusCode)
	}
	// Between adoption and reconciliation the worker refuses traffic.
	if code, body := getBody(t, w.url()+"/v1/readyz"); code != http.StatusServiceUnavailable ||
		!strings.Contains(string(body), "re-registering") {
		t.Fatalf("readyz during re-registration = %d %s", code, body)
	}
	if resp := get("/v1/jobs", "2"); resp.StatusCode != http.StatusOK {
		t.Fatalf("reconcile listing status %d", resp.StatusCode)
	}
	if code, _ := getBody(t, w.url()+"/v1/readyz"); code != http.StatusOK {
		t.Fatalf("readyz after reconciliation = %d", code)
	}

	// The old primary's next probe is fenced; it notices and stands down.
	deadline = time.Now().Add(15 * time.Second)
	for !coordA.Fenced() {
		if time.Now().After(deadline) {
			t.Fatalf("primary never fenced (worker rejected %d)", w.fence.Rejected())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if w.fence.Rejected() == 0 {
		t.Error("fence rejected nothing")
	}
	if ok, reason := coordA.Ready(); ok || !strings.Contains(reason, "fenced") {
		t.Errorf("fenced coordinator ready=(%v,%q)", ok, reason)
	}
	if _, _, err := coordA.Submit(service.Request{Experiment: "table1", Seed: 1}); !errors.Is(err, service.ErrShuttingDown) {
		t.Errorf("fenced coordinator accepted work (err=%v)", err)
	}
}

// TestStealDuringWorkerDeath: the slow worker dies while its lanes hold
// jobs the fast worker would otherwise have taken. Nothing is lost: its
// jobs go back to the queue and finish on the survivor, every job
// exactly once.
func TestStealDuringWorkerDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node simulation sweep")
	}
	inj := faultinject.New(1)
	inj.Set("worker.slow", faultinject.Rule{Kind: faultinject.Slow, Nth: 1, Delay: time.Second})
	nodes := startWorkers(t, []string{"w1", "w2"}, service.SchedulerConfig{Workers: 1},
		map[string]service.FaultPoints{"w1": inj})
	coord, _ := startCoordinator(t, nodes, Config{DeadAfter: 2})

	const jobs = 8
	ids := make([]string, 0, jobs)
	for _, req := range tableReqs(jobs) {
		st, _, err := coord.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}

	// Kill the slow worker once its lanes hold their first jobs and the
	// fast worker has finished everything else.
	deadline := time.Now().Add(20 * time.Second)
	for {
		onW1, done := 0, 0
		for _, st := range coord.Jobs() {
			if st.Worker == "w1" {
				onW1++
			}
			if st.State == service.JobDone {
				done++
			}
		}
		if onW1 > 0 && done == jobs-onW1 {
			t.Logf("w1 holds %d jobs while w2 finished %d", onW1, done)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fast worker never drained the queue: %d on w1, %d done", onW1, done)
		}
		time.Sleep(5 * time.Millisecond)
	}
	nodes["w1"].ts.CloseClientConnections()
	nodes["w1"].ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, id := range ids {
		fin, err := coord.Wait(ctx, id)
		if err != nil || fin.State != service.JobDone {
			t.Fatalf("job %s: %+v err=%v", id, fin, err)
		}
		if fin.Worker != "w2" {
			t.Errorf("job %s finished on %q, want survivor w2", id, fin.Worker)
		}
	}
	c := coord.Counters()
	if got := c.Get("done"); got != jobs {
		t.Errorf("done = %d, want %d", got, jobs)
	}
	if got := nodes["w2"].sched.Counters().Get("simulated"); got != jobs {
		t.Errorf("survivor simulated %d jobs, want each of %d exactly once", got, jobs)
	}
	if dead := c.Get("worker_dead"); dead != 1 {
		t.Errorf("worker_dead = %d, want 1", dead)
	}
	t.Logf("rehashed=%d rpc_errors=%d", c.Get("rehashed"), c.Get("rpc_errors"))
}

// TestReplayedPlacementOnDeadWorker: the journal replays a job placed on
// a worker that never answers again. DeadAfter failed probes declare that
// worker dead although this coordinator never saw it alive, so the job
// goes back to the queue and finishes on the live worker instead of
// waiting for the dead one forever.
func TestReplayedPlacementOnDeadWorker(t *testing.T) {
	nodes := startWorkers(t, []string{"w1"}, service.SchedulerConfig{Workers: 1}, nil)
	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close()

	path := filepath.Join(t.TempDir(), "cluster.journal")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	req := tableReqs(1)[0]
	j.Submit("c000001", mustKey(t, req), req, 0)
	j.Start("c000001", 1, "w2", "j000001")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	journal, replay, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	coord, _ := startCoordinator(t, nodes, Config{Journal: journal, Replay: replay, DeadAfter: 2,
		Workers: []Member{{Name: "w2", URL: gone.URL}}})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	fin, err := coord.Wait(ctx, "c000001")
	if err != nil || fin.State != service.JobDone || fin.Worker != "w1" {
		c := coord.Counters()
		t.Fatalf("replayed job: %+v err=%v (worker_dead=%d rehashed=%d)", fin, err,
			c.Get("worker_dead"), c.Get("rehashed"))
	}
	if c := coord.Counters(); c.Get("worker_dead") != 1 || c.Get("rehashed") != 1 {
		t.Errorf("worker_dead=%d rehashed=%d, want 1 and 1", c.Get("worker_dead"), c.Get("rehashed"))
	}
}
