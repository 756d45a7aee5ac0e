package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"acb/internal/expo"
	"acb/internal/faultinject"
	"acb/internal/service"
)

// testNode is one in-process worker: a real scheduler + store behind a
// real HTTP listener, indistinguishable from a separate acbd daemon.
type testNode struct {
	name  string
	sched *service.Scheduler
	store *service.Store
	fence *Fence
	ts    *httptest.Server
}

func (n *testNode) url() string { return n.ts.URL }

// startWorkers boots a fleet of named workers with the peer result
// cache wired between them, mirroring `acbd serve -role worker -peers`.
// faults configures per-worker scheduler injectors (may be nil / short).
func startWorkers(t *testing.T, names []string, cfg service.SchedulerConfig, faults map[string]service.FaultPoints) map[string]*testNode {
	t.Helper()
	nodes := make(map[string]*testNode, len(names))
	for _, name := range names {
		store, err := service.NewStore(256, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		wcfg := cfg
		if faults != nil {
			wcfg.Faults = faults[name]
		}
		sched := service.NewScheduler(wcfg, store)
		srv := service.NewServer(sched)
		srv.SetNode(name)
		// Production workers run behind the epoch fence (cmd/acbd wires it
		// for -role worker); the fleet here does too so every cluster test
		// exercises the pass-through path and failover tests can assert on
		// adopted epochs.
		fence := NewFence()
		srv.AddReadyCheck(fence.Ready)
		nodes[name] = &testNode{name: name, sched: sched, store: store, fence: fence,
			ts: httptest.NewServer(fence.Middleware(srv.Handler()))}
	}
	members := make(map[string]string, len(nodes))
	for name, n := range nodes {
		members[name] = n.url()
	}
	for name, n := range nodes {
		n.store.SetPeers(PeerFetcher(name, members, NewClient(2*time.Second, nil)), 0)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for _, n := range nodes {
			n.ts.Close()
			n.sched.Shutdown(ctx)
		}
	})
	return nodes
}

// startCoordinator boots a coordinator over the given workers and
// serves it over HTTP. Returns once readyz reports ready.
func startCoordinator(t *testing.T, nodes map[string]*testNode, cfg Config) (*Coordinator, *httptest.Server) {
	t.Helper()
	if cfg.Node == "" {
		cfg.Node = "coord"
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 50 * time.Millisecond
	}
	if cfg.PollInterval == 0 {
		cfg.PollInterval = 25 * time.Millisecond
	}
	if cfg.ProbeTimeout == 0 {
		cfg.ProbeTimeout = time.Second
	}
	if cfg.RPCTimeout == 0 {
		cfg.RPCTimeout = 5 * time.Second
	}
	for name, n := range nodes {
		cfg.Workers = append(cfg.Workers, Member{Name: name, URL: n.url()})
	}
	store, err := service.NewStore(256, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord, err := New(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	coord.Start()
	ts := httptest.NewServer(NewServer(coord).Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		coord.Shutdown(ctx)
	})
	deadline := time.Now().Add(10 * time.Second)
	for {
		if ok, _ := coord.Ready(); ok {
			return coord, ts
		}
		if time.Now().After(deadline) {
			t.Fatal("coordinator never became ready")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// tableReqs builds n distinct cheap requests (table1, seeds 1..n).
func tableReqs(n int) []service.Request {
	out := make([]service.Request, 0, n)
	for seed := int64(1); seed <= int64(n); seed++ {
		out = append(out, service.Request{Experiment: "table1", Seed: seed})
	}
	return out
}

// reqsOwnedBy scans seeds for n requests whose keys the given ring
// places on node — the deterministic way to aim load at one shard.
func reqsOwnedBy(t *testing.T, ring *Ring, node string, n int) []service.Request {
	t.Helper()
	var out []service.Request
	for seed := int64(1); len(out) < n && seed < 100000; seed++ {
		req := service.Request{Experiment: "table1", Seed: seed}
		key, err := req.Key()
		if err != nil {
			t.Fatal(err)
		}
		if owner, _ := ring.Owner(key); owner == node {
			out = append(out, req)
		}
	}
	if len(out) < n {
		t.Fatalf("found only %d/%d keys owned by %s", len(out), n, node)
	}
	return out
}

func mustKey(t *testing.T, req service.Request) string {
	t.Helper()
	key, err := req.Key()
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// referenceResults runs the same requests on a pristine single-node
// scheduler and returns each key's result JSON — the byte-identity
// oracle for cluster transparency.
func referenceResults(t *testing.T, reqs []service.Request) map[string][]byte {
	t.Helper()
	store, err := service.NewStore(256, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sched := service.NewScheduler(service.SchedulerConfig{Workers: 2}, store)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	defer sched.Shutdown(ctx)
	out := make(map[string][]byte, len(reqs))
	for _, req := range reqs {
		st, _, err := sched.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		fin, err := sched.Wait(ctx, st.ID)
		if err != nil || fin.State != service.JobDone {
			t.Fatalf("reference run: %+v err=%v", fin, err)
		}
		tab, ok := store.Get(fin.ResultKey)
		if !ok {
			t.Fatalf("reference result %s missing", fin.ResultKey)
		}
		b, err := json.Marshal(tab)
		if err != nil {
			t.Fatal(err)
		}
		out[fin.ResultKey] = b
	}
	return out
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestClusterBatchStreamByteIdentical is the cluster transparency
// acceptance path with no faults: a batch lands across three shards,
// the streaming API reports every completion, every result is
// byte-identical to a single-node run, and the aggregated exposition
// carries every node's series.
func TestClusterBatchStreamByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node simulation sweep")
	}
	nodes := startWorkers(t, []string{"w1", "w2", "w3"}, service.SchedulerConfig{Workers: 2}, nil)
	coord, ts := startCoordinator(t, nodes, Config{})

	reqs := tableReqs(9)
	body, _ := json.Marshal(map[string]interface{}{"jobs": reqs})
	resp, err := http.Post(ts.URL+"/v1/jobs:batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var batch struct {
		Jobs []struct {
			JobStatus
			Error string `json:"error"`
		} `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(batch.Jobs) != len(reqs) {
		t.Fatalf("batch: status %d, %d items", resp.StatusCode, len(batch.Jobs))
	}
	var ids []string
	for i, item := range batch.Jobs {
		if item.Error != "" {
			t.Fatalf("batch item %d rejected: %s", i, item.Error)
		}
		ids = append(ids, item.ID)
	}

	// Stream completions as NDJSON: one parseable line per job.
	resp, err = http.Get(ts.URL + "/v1/results:stream?timeout=90s&ids=" + strings.Join(ids, ","))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	doneKeys := make(map[string]string) // job id -> result key
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var st JobStatus
		if err := json.Unmarshal(sc.Bytes(), &st); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if st.State != service.JobDone {
			t.Fatalf("job %s streamed %s: %s", st.ID, st.State, st.Error)
		}
		doneKeys[st.ID] = st.ResultKey
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(doneKeys) != len(reqs) {
		t.Fatalf("stream reported %d jobs, want %d", len(doneKeys), len(reqs))
	}

	// Placement actually sharded: more than one worker ran jobs.
	workersUsed := make(map[string]bool)
	for _, st := range coord.Jobs() {
		workersUsed[st.Worker] = true
	}
	if len(workersUsed) < 2 {
		t.Errorf("9 jobs all landed on %v: ring not sharding", workersUsed)
	}

	// Byte-identity against a never-clustered run, via the coordinator's
	// results proxy.
	ref := referenceResults(t, reqs)
	for id, key := range doneKeys {
		code, got := getBody(t, ts.URL+"/v1/results/"+key)
		if code != http.StatusOK {
			t.Fatalf("result %s (job %s): status %d", key, id, code)
		}
		want, ok := ref[key]
		if !ok {
			t.Fatalf("job %s produced key %s the reference run never did", id, key)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("key %s: cluster result differs from single-node run\ncluster: %s\nsingle:  %s", key, got, want)
		}
	}

	// Aggregated metrics: every node's series present, node-labeled.
	code, metrics := getBody(t, ts.URL+"/v1/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	fams, err := expo.Parse(string(metrics))
	if err != nil {
		t.Fatalf("aggregated exposition does not parse: %v", err)
	}
	nodesSeen := make(map[string]bool)
	for _, f := range fams {
		for _, s := range f.Samples {
			for _, l := range s.Labels {
				if l.Name == "node" {
					nodesSeen[l.Value] = true
				}
			}
		}
	}
	for _, want := range []string{"w1", "w2", "w3", "coord"} {
		if !nodesSeen[want] {
			t.Errorf("aggregated metrics missing node %q (saw %v)", want, nodesSeen)
		}
	}
	for _, want := range []string{
		`acbd_cluster_workers{state="alive",node="coord"} 3`,
		`acbd_cluster_scrape_up{worker="w1",node="coord"} 1`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("aggregated metrics missing %s:\n%.2000s", want, metrics)
		}
	}
}

// TestClusterDedupAndCacheHit: duplicate submissions coalesce while in
// flight, re-running a finished sweep dedups on the worker's store, and
// once the coordinator's own cache holds a result a resubmission is an
// instant cache hit.
func TestClusterDedupAndCacheHit(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node simulation sweep")
	}
	nodes := startWorkers(t, []string{"w1"}, service.SchedulerConfig{Workers: 1}, nil)
	coord, ts := startCoordinator(t, nodes, Config{})

	req := service.Request{Experiment: "table1", Seed: 7}
	st1, created, err := coord.Submit(req)
	if err != nil || !created {
		t.Fatalf("first submit: created=%v err=%v", created, err)
	}
	st2, created, err := coord.Submit(req)
	if err != nil || created {
		t.Fatalf("duplicate submit not deduped: created=%v err=%v", created, err)
	}
	if st2.ID != st1.ID {
		t.Fatalf("dedup returned different job %s vs %s", st2.ID, st1.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	fin, err := coord.Wait(ctx, st1.ID)
	if err != nil || fin.State != service.JobDone {
		t.Fatalf("job finished %+v err=%v", fin, err)
	}

	// Terminal now: a resubmission is a new job, served instantly off the
	// worker's store at dispatch time (no second simulation).
	st3, created, err := coord.Submit(req)
	if err != nil || !created {
		t.Fatalf("resubmit: created=%v err=%v", created, err)
	}
	fin3, err := coord.Wait(ctx, st3.ID)
	if err != nil || fin3.State != service.JobDone {
		t.Fatalf("resubmit finished %+v err=%v", fin3, err)
	}

	// The warm replicator pulls the result into the coordinator's own
	// store; once there, submits short-circuit before any dispatch.
	key := mustKey(t, req)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok := coord.Store().GetLocal(key); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("coordinator never warmed the completed result")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(fmt.Sprintf(`{"experiment":"table1","seed":%d}`, req.Seed)))
	if err != nil {
		t.Fatal(err)
	}
	var sr submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !sr.CacheHit || sr.State != service.JobDone {
		t.Fatalf("cached resubmit: status %d, %+v", resp.StatusCode, sr.JobStatus)
	}
}

// TestClusterPeerFetchAcrossShards: a result computed on its owning
// shard is served by a different shard through the store's peer tier,
// byte-identical, and counted as a peer hit.
func TestClusterPeerFetchAcrossShards(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node simulation sweep")
	}
	nodes := startWorkers(t, []string{"w1", "w2"}, service.SchedulerConfig{Workers: 1}, nil)
	_, _ = startCoordinator(t, nodes, Config{})

	fullRing := NewRing("w1", "w2")
	req := reqsOwnedBy(t, fullRing, "w1", 1)[0]
	key := mustKey(t, req)

	// Run it on its owner directly (as the coordinator would place it).
	st, _, err := nodes["w1"].sched.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if fin, err := nodes["w1"].sched.Wait(ctx, st.ID); err != nil || fin.State != service.JobDone {
		t.Fatalf("owner run: %+v err=%v", fin, err)
	}

	codeOwner, fromOwner := getBody(t, nodes["w1"].url()+"/v1/results/"+key)
	codePeer, fromPeer := getBody(t, nodes["w2"].url()+"/v1/results/"+key)
	if codeOwner != http.StatusOK || codePeer != http.StatusOK {
		t.Fatalf("owner/peer status %d/%d", codeOwner, codePeer)
	}
	if !bytes.Equal(fromOwner, fromPeer) {
		t.Errorf("peer-served result differs from owner's:\npeer:  %s\nowner: %s", fromPeer, fromOwner)
	}
	if hits, errs := nodes["w2"].store.PeerStats(); hits != 1 || errs != 0 {
		t.Errorf("w2 peer hits/errs = %d/%d, want 1/0", hits, errs)
	}
}

// TestClusterWorkerDeathRehash: jobs placed on a worker that dies
// mid-run are detected via failed heartbeats, re-hashed onto the
// survivor, and complete — none lost.
func TestClusterWorkerDeathRehash(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node simulation sweep")
	}
	// Every w1 job stalls 1.5s before simulating, so w1 is guaranteed to
	// still hold them when it is killed.
	inj := faultinject.New(1)
	inj.Set("worker.slow", faultinject.Rule{Kind: faultinject.Slow, Nth: 1, Delay: 1500 * time.Millisecond})
	nodes := startWorkers(t, []string{"w1", "w2"}, service.SchedulerConfig{Workers: 1},
		map[string]service.FaultPoints{"w1": inj})
	coord, _ := startCoordinator(t, nodes, Config{DeadAfter: 2})

	reqs := tableReqs(3)
	var ids []string
	for _, req := range reqs {
		st, _, err := coord.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}

	// Wait until at least one job is assigned to w1, then kill it. Lanes
	// pull work, so w1 holds at most its two lanes' jobs, not all three.
	onW1 := 0
	deadline := time.Now().Add(10 * time.Second)
	for onW1 == 0 {
		for _, st := range coord.Jobs() {
			if st.Worker == "w1" {
				onW1++
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("jobs never dispatched to w1")
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
			t.Fatalf("job %s after worker death: %+v err=%v", id, fin, err)
		}
		if fin.Worker != "w2" {
			t.Errorf("job %s finished on %q, want survivor w2", id, fin.Worker)
		}
	}
	c := coord.Counters()
	if c.Get("worker_dead") != 1 {
		t.Errorf("worker_dead = %d, want 1", c.Get("worker_dead"))
	}
	if c.Get("rehashed") < int64(onW1) {
		t.Errorf("rehashed = %d, want >= %d", c.Get("rehashed"), onW1)
	}
}

// TestClusterWorkSteal: a straggler's backlog finishes on the idle
// worker. Lanes pull instead of stealing, but the contract holds: with
// one slow worker, the other worker's lanes drain the queue while the
// slow one runs only what its own lanes claimed, and every job runs
// exactly once fleet-wide.
func TestClusterWorkSteal(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node simulation sweep")
	}
	inj := faultinject.New(1)
	inj.Set("worker.slow", faultinject.Rule{Kind: faultinject.Slow, Nth: 1, Delay: time.Second})
	nodes := startWorkers(t, []string{"w1", "w2"}, service.SchedulerConfig{Workers: 1},
		map[string]service.FaultPoints{"w1": inj})
	coord, _ := startCoordinator(t, nodes, Config{})

	const jobs = 8
	ids := make([]string, 0, jobs)
	for _, req := range tableReqs(jobs) {
		st, _, err := coord.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	byWorker := make(map[string]int)
	for _, id := range ids {
		fin, err := coord.Wait(ctx, id)
		if err != nil || fin.State != service.JobDone {
			t.Fatalf("job %s: %+v err=%v", id, fin, err)
		}
		byWorker[fin.Worker]++
	}
	if byWorker["w2"] <= byWorker["w1"] {
		t.Errorf("fast worker did not take the straggler's share: completions by worker = %v", byWorker)
	}
	if got := coord.Counters().Get("done"); got != jobs {
		t.Errorf("done = %d, want %d", got, jobs)
	}
	if got := simulatedTotal(nodes); got != jobs {
		t.Errorf("fleet simulated %d jobs, want each of %d exactly once", got, jobs)
	}
	t.Logf("completions by worker: %v", byWorker)
}

// TestClusterBackpressure: past QueueDepth non-terminal jobs the
// coordinator answers 429 with a Retry-After, same as a single node.
func TestClusterBackpressure(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node simulation sweep")
	}
	inj := faultinject.New(1)
	inj.Set("worker.slow", faultinject.Rule{Kind: faultinject.Slow, Nth: 1, Delay: 2 * time.Second})
	nodes := startWorkers(t, []string{"w1"}, service.SchedulerConfig{Workers: 1},
		map[string]service.FaultPoints{"w1": inj})
	_, ts := startCoordinator(t, nodes, Config{QueueDepth: 1})

	post := func(seed int64) *http.Response {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
			strings.NewReader(fmt.Sprintf(`{"experiment":"table1","seed":%d}`, seed)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := post(1); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first submit status %d", resp.StatusCode)
	}
	resp := post(2)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-depth submit status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

// postCode POSTs body to url and returns the status code.
func postCode(t *testing.T, url, body string) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestCoordinatorSubmitBodyLimit: POST /v1/jobs on a coordinator refuses
// a body over service.MaxRequestBytes with 413.
func TestCoordinatorSubmitBodyLimit(t *testing.T) {
	nodes := startWorkers(t, []string{"w1"}, service.SchedulerConfig{Workers: 1}, nil)
	_, ts := startCoordinator(t, nodes, Config{})
	body := `{"experiment":"table1","workloads":["` + strings.Repeat("x", service.MaxRequestBytes) + `"]}`
	if code := postCode(t, ts.URL+"/v1/jobs", body); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized submit = %d, want 413", code)
	}
}

// TestCoordinatorBatchBodyLimit: POST /v1/jobs:batch refuses a body over
// maxBatchBytes with 413 while reading it, however few items it holds.
func TestCoordinatorBatchBodyLimit(t *testing.T) {
	nodes := startWorkers(t, []string{"w1"}, service.SchedulerConfig{Workers: 1}, nil)
	_, ts := startCoordinator(t, nodes, Config{})
	body := `{"jobs":[{"experiment":"table1","workloads":["` + strings.Repeat("x", maxBatchBytes) + `"]}]}`
	if code := postCode(t, ts.URL+"/v1/jobs:batch", body); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch = %d, want 413", code)
	}
}

// TestLanesFor: a worker reporting job concurrency n gets n+1 lanes; a
// value outside [1, maxSlots] counts as 1.
func TestLanesFor(t *testing.T) {
	for n, want := range map[int]int{-3: 2, 0: 2, 1: 2, 4: 5, maxSlots: maxSlots + 1, maxSlots + 1: 2} {
		if got := lanesFor(n); got != want {
			t.Errorf("lanesFor(%d) = %d, want %d", n, got, want)
		}
	}
}
