package cluster

import (
	"bytes"
	"context"
	"testing"
	"time"

	"acb/internal/faultinject"
	"acb/internal/service"
)

// TestClusterChaosStorm is the cluster promotion of the single-node
// 40-job seeded storm: the same sweep runs on a three-shard fleet while
// a network partition opens mid-run between the coordinator and one
// worker (seeded, bounded, self-healing) and a second worker is killed
// outright once results start landing. Asserts the cluster's
// exactly-once accounting — every job reaches exactly one terminal
// state, all of them done, terminal counters sum to the submission
// count with no double-counting — and full transparency: every result
// byte-identical to a single-node run of the same sweep. Run under
// -race.
func TestClusterChaosStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node chaos sweep")
	}
	// Partition chaos on the coordinator's RPC fabric: the link to w2
	// starts failing after 30 calls (mid-run, deterministically), stays
	// flaky for up to 40 injected failures, then heals for good.
	inj := faultinject.New(42)
	inj.Set("rpc.w2", faultinject.Rule{Prob: 0.3, After: 30, Limit: 40})

	// Workers stall a little so the kill below reliably lands mid-sweep.
	slow := faultinject.New(7)
	slow.Set("worker.slow", faultinject.Rule{Kind: faultinject.Slow, Prob: 0.5, Delay: 30 * time.Millisecond})

	nodes := startWorkers(t, []string{"w1", "w2", "w3"},
		service.SchedulerConfig{Workers: 2, MaxAttempts: 4, RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond, RetrySeed: 42},
		map[string]service.FaultPoints{"w1": slow, "w2": slow, "w3": slow})
	coord, ts := startCoordinator(t, nodes, Config{Faults: inj, DeadAfter: 2, MaxAssigns: 10})

	const jobs = 40
	reqs := tableReqs(jobs)
	ids := make([]string, 0, jobs)
	for _, req := range reqs {
		st, created, err := coord.Submit(req)
		if err != nil {
			t.Fatalf("submit seed %d: %v", req.Seed, err)
		}
		if !created {
			t.Fatalf("seed %d deduped against nothing", req.Seed)
		}
		ids = append(ids, st.ID)
	}

	// Once a third of the sweep is done, pin down every completed result
	// via the coordinator proxy (so nothing lives only on the victim),
	// then kill w3 without ceremony — the kill -9 analog: connections
	// severed, listener gone, no drain.
	killDeadline := time.Now().Add(60 * time.Second)
	for {
		done := 0
		for _, st := range coord.Jobs() {
			if st.State == service.JobDone {
				done++
			}
		}
		if done >= jobs/3 {
			break
		}
		if time.Now().After(killDeadline) {
			t.Fatal("sweep never reached 1/3 done before the kill")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, st := range coord.Jobs() {
		if st.State == service.JobDone && st.ResultKey != "" {
			if code, _ := getBody(t, ts.URL+"/v1/results/"+st.ResultKey); code != 200 {
				t.Fatalf("pre-kill result %s: status %d", st.ResultKey, code)
			}
		}
	}
	nodes["w3"].ts.CloseClientConnections()
	nodes["w3"].ts.Close()
	t.Log("killed w3 mid-sweep")
	// table1 jobs run no simulation, so the rest of the sweep can finish
	// before the probes declare w3 dead: wait for the death first.
	deathDeadline := time.Now().Add(30 * time.Second)
	for coord.Counters().Get("worker_dead") < 1 {
		if time.Now().After(deathDeadline) {
			t.Fatal("no worker declared dead 30s after the kill")
		}
		time.Sleep(5 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	states := make(map[service.JobState]int)
	keys := make([]string, 0, jobs)
	for _, id := range ids {
		fin, err := coord.Wait(ctx, id)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		states[fin.State]++
		if fin.State != service.JobDone {
			t.Errorf("job %s finished %s: %s", id, fin.State, fin.Error)
			continue
		}
		keys = append(keys, fin.ResultKey)
	}

	// Exactly-once accounting: terminal states and counters both sum to
	// the submission count — nothing lost, nothing double-counted.
	if total := states[service.JobDone] + states[service.JobFailed] + states[service.JobCancelled]; total != jobs {
		t.Errorf("terminal states %+v sum to %d, want %d (lost or duplicated jobs)", states, total, jobs)
	}
	c := coord.Counters()
	if got := c.Get("submitted"); got != jobs {
		t.Errorf("submitted = %d, want %d", got, jobs)
	}
	if sum := c.Get("done") + c.Get("failed") + c.Get("cancelled"); sum != jobs {
		t.Errorf("done+failed+cancelled = %d, want %d (double-counted transitions)", sum, jobs)
	}

	// The storm must actually have stormed. At least the killed w3 must
	// have been declared dead; the partition may also fail DeadAfter
	// consecutive probes to w2, transiently declaring it dead before the
	// heal brings it back — that is correct partition behavior, not a
	// lost worker, so the bound is one-sided.
	if c.Get("worker_dead") < 1 {
		t.Errorf("worker_dead = %d, want >= 1", c.Get("worker_dead"))
	}
	var injected int64
	for _, n := range inj.Counts() {
		injected += n
	}
	if injected == 0 {
		t.Error("partition rule never fired; storm parameters too tame")
	}
	t.Logf("storm: states=%+v injected=%d dead=%d rehashed=%d stolen=%d rpc_errors=%d requeued_lost=%d",
		states, injected, c.Get("worker_dead"), c.Get("rehashed"), c.Get("stolen"),
		c.Get("rpc_errors"), c.Get("requeued_lost"))

	// Transparency: every cluster result byte-identical to a single-node
	// run of the same sweep, served through the coordinator proxy.
	ref := referenceResults(t, reqs)
	for _, key := range keys {
		code, got := getBody(t, ts.URL+"/v1/results/"+key)
		if code != 200 {
			t.Errorf("result %s: status %d", key, code)
			continue
		}
		want, ok := ref[key]
		if !ok {
			t.Errorf("cluster produced key %s the reference run never did", key)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("key %s: cluster result differs from single-node run", key)
		}
	}
}
