package service

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"acb/internal/faultinject"
)

// TestChaosStorm drives the scheduler through a seeded storm of injected
// disk-write failures, worker panics and artificial slowness while jobs
// are submitted and cancelled concurrently, and asserts the accounting
// invariants the fault-tolerance layer promises: every job reaches
// exactly one terminal state, done+failed+cancelled match submissions,
// every done job's result is retrievable, and the write-ahead journal is
// left with nothing to replay. Run it under -race.
func TestChaosStorm(t *testing.T) {
	dir := t.TempDir()
	inj := faultinject.New(42)
	inj.Set("store.persist", faultinject.Rule{Prob: 0.25})
	inj.Set("worker", faultinject.Rule{Kind: faultinject.Panic, Nth: 5})
	inj.Set("worker.slow", faultinject.Rule{Kind: faultinject.Slow, Prob: 0.2, Delay: 200 * time.Microsecond})
	inj.Set("store.load", faultinject.Rule{Prob: 0.1})

	journalFile := filepath.Join(dir, "journal.jsonl")
	journal, replay, err := OpenJournal(journalFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(replay) != 0 {
		t.Fatalf("fresh journal replayed %d jobs", len(replay))
	}
	store, err := NewStore(64, filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	store.SetFaults(inj)
	sched := NewScheduler(SchedulerConfig{
		Workers:     2,
		QueueDepth:  64,
		MaxAttempts: 4,
		RetryBase:   time.Millisecond,
		RetryMax:    5 * time.Millisecond,
		RetrySeed:   42,
		Journal:     journal,
		Faults:      inj,
	}, store)

	const jobs = 40
	ids := make([]string, 0, jobs)
	for seed := int64(1); seed <= jobs; seed++ {
		st, _, err := sched.Submit(Request{Experiment: "table1", Seed: seed})
		if err != nil {
			t.Fatalf("submit seed %d: %v", seed, err)
		}
		ids = append(ids, st.ID)
		// Cancel a scattering of jobs at whatever state they happen to be
		// in — queued, running, or already terminal.
		if seed%7 == 0 {
			sched.Cancel(st.ID)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	states := make(map[JobState]int)
	for _, id := range ids {
		st, err := sched.Wait(ctx, id)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		states[st.State]++
		switch st.State {
		case JobDone:
			if _, ok := store.Get(st.ResultKey); !ok {
				t.Errorf("done job %s: result %s missing from store", id, st.ResultKey)
			}
		case JobFailed, JobCancelled:
		default:
			t.Errorf("job %s in non-terminal state %s after Wait", id, st.State)
		}
	}
	if total := states[JobDone] + states[JobFailed] + states[JobCancelled]; total != jobs {
		t.Errorf("terminal states %+v sum to %d, want %d (lost or duplicated jobs)", states, total, jobs)
	}
	c := sched.Counters()
	if got := c.Get("submitted"); got != jobs {
		t.Errorf("submitted = %d, want %d", got, jobs)
	}
	if sum := c.Get("done") + c.Get("failed") + c.Get("cancelled"); sum != jobs {
		t.Errorf("done+failed+cancelled = %d, want %d (double-counted terminal transitions)", sum, jobs)
	}
	// The storm must actually have stormed, or the test is vacuous.
	var injected int64
	for _, n := range inj.Counts() {
		injected += n
	}
	if injected == 0 {
		t.Error("no faults fired; storm parameters too tame")
	}
	if c.Get("retried") == 0 {
		t.Error("no retries happened under fault injection")
	}
	t.Logf("storm: states=%+v retried=%d injected=%d diskErrs=%d",
		states, c.Get("retried"), injected, store.DiskErrors())

	if err := sched.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Every terminal transition was journaled, so a restart finds every
	// job terminal and nothing to re-run: no job lost, none resurrected
	// for a double run.
	j2, replay, err := OpenJournal(journalFile)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	for _, rj := range replay {
		if !rj.State.Terminal() {
			t.Fatalf("journal replayed pending job %+v after clean terminal states", rj)
		}
	}
}

// TestCrashRecoveryByteIdentical is the acceptance test for crash
// recovery: a daemon is "killed" with one job mid-run and one queued,
// a second daemon over the same journal and store directories replays
// and reruns them, and the recovered results are byte-identical to those
// of a daemon that never crashed.
func TestCrashRecoveryByteIdentical(t *testing.T) {
	dir := t.TempDir()
	journalFile := filepath.Join(dir, "journal.jsonl")
	storeDir := filepath.Join(dir, "store")

	reqA := Request{Experiment: "census", Workloads: []string{"compression"}, Budget: 40_000}
	reqB := Request{Experiment: "cpistack", Workloads: []string{"compression"}, Budget: 20_000}

	// --- incarnation 1: wedge reqA mid-run, leave reqB queued, "crash".
	journal1, _, err := OpenJournal(journalFile)
	if err != nil {
		t.Fatal(err)
	}
	store1, err := NewStore(16, storeDir)
	if err != nil {
		t.Fatal(err)
	}
	gate := gateFaults{release: make(chan struct{})}
	sched1 := NewScheduler(SchedulerConfig{Workers: 1, Journal: journal1, Faults: gate}, store1)
	// The "crash": sched1 is abandoned, never drained. Its worker stays
	// wedged at the gate until the test is over; the cleanup below (LIFO,
	// so it runs after all assertions) releases it and tears it down.
	t.Cleanup(func() {
		close(gate.release)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		sched1.Shutdown(ctx)
	})

	stA, _, err := sched1.Submit(reqA)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, _ := sched1.Job(stA.ID)
		if st.State == JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job A never started")
		}
		time.Sleep(time.Millisecond)
	}
	stB, _, err := sched1.Submit(reqB)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := sched1.Job(stB.ID); st.State != JobQueued {
		t.Fatalf("job B %s, want queued behind the wedged worker", st.State)
	}

	// --- incarnation 2: same journal, same store, no crash this time.
	journal2, replay, err := OpenJournal(journalFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(replay) != 2 {
		t.Fatalf("replayed %d jobs, want 2: %+v", len(replay), replay)
	}
	if replay[0].ID != stA.ID || !replay[0].Interrupted || replay[0].Attempt != 1 {
		t.Fatalf("replay[0] = %+v, want interrupted %s with the crashed run counted", replay[0], stA.ID)
	}
	if replay[1].ID != stB.ID || replay[1].Interrupted || replay[1].Attempt != 0 {
		t.Fatalf("replay[1] = %+v, want queued %s untouched", replay[1], stB.ID)
	}

	store2, err := NewStore(16, storeDir)
	if err != nil {
		t.Fatal(err)
	}
	sched2 := NewScheduler(SchedulerConfig{Workers: 1, Journal: journal2, Replay: replay}, store2)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, id := range []string{stA.ID, stB.ID} {
		st, err := sched2.Wait(ctx, id)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if st.State != JobDone {
			t.Fatalf("recovered job %s finished %s: %s", id, st.State, st.Error)
		}
		if !st.Replayed {
			t.Errorf("recovered job %s not marked replayed", id)
		}
	}
	if st, _ := sched2.Job(stA.ID); st.Attempts != 2 {
		t.Errorf("interrupted job attempts = %d, want 2 (crashed run + recovery run)", st.Attempts)
	}
	if err := sched2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// --- reference: a daemon that never crashed, in a pristine store.
	refDir := filepath.Join(dir, "ref")
	refStore, err := NewStore(16, refDir)
	if err != nil {
		t.Fatal(err)
	}
	refSched := NewScheduler(SchedulerConfig{Workers: 1}, refStore)
	for _, req := range []Request{reqA, reqB} {
		st, _, err := refSched.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if st, err := refSched.Wait(ctx, st.ID); err != nil || st.State != JobDone {
			t.Fatalf("reference run: %+v err=%v", st, err)
		}
	}
	if err := refSched.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	for _, req := range []Request{reqA, reqB} {
		key := mustKey(t, req)
		recovered, err := os.ReadFile(filepath.Join(storeDir, key+".json"))
		if err != nil {
			t.Fatalf("recovered result %s: %v", key, err)
		}
		reference, err := os.ReadFile(filepath.Join(refDir, key+".json"))
		if err != nil {
			t.Fatalf("reference result %s: %v", key, err)
		}
		if !bytes.Equal(recovered, reference) {
			t.Errorf("%s: recovered result differs from never-crashed run\nrecovered: %s\nreference: %s",
				req.Experiment, recovered, reference)
		}
	}
}
