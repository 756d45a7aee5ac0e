package service

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"acb/internal/experiments"
	"acb/internal/stats"
)

// JobState is a job's lifecycle state.
type JobState string

// Job lifecycle: Queued -> Running -> Done | Failed | Cancelled, with a
// direct Queued -> Cancelled edge, a direct -> Done edge for cache hits
// (no simulation runs at all), and a Running -> Queued edge when a
// transient failure is retried with backoff.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// States lists every job state (metrics emit a gauge per state).
var States = []JobState{JobQueued, JobRunning, JobDone, JobFailed, JobCancelled}

// Error kinds classify failed jobs (JobStatus.ErrorKind).
const (
	// ErrKindDeadline marks a job killed by its deadline; it is not
	// retried (it would only time out again).
	ErrKindDeadline = "deadline"
	// ErrKindTransient marks a potentially-recoverable failure (persist
	// error, worker panic, injected fault): retried with backoff until
	// MaxAttempts runs have begun.
	ErrKindTransient = "transient"
)

// Sentinel errors, mapped onto HTTP statuses by the API layer.
var (
	ErrQueueFull    = errors.New("service: job queue full")
	ErrShuttingDown = errors.New("service: scheduler shutting down")
	ErrUnknownJob   = errors.New("service: unknown job")
)

// JobStatus is the JSON snapshot of a job served by the API. Started and
// Finished are nil until the job reaches the corresponding state.
type JobStatus struct {
	ID         string   `json:"id"`
	State      JobState `json:"state"`
	Experiment string   `json:"experiment"`
	Request    Request  `json:"request"`
	ResultKey  string   `json:"result_key"`
	CacheHit   bool     `json:"cache_hit,omitempty"`
	Error      string   `json:"error,omitempty"`
	// ErrorKind classifies failures: "deadline" or "transient" (see
	// ErrKind*). Empty for done/cancelled jobs.
	ErrorKind string `json:"error_kind,omitempty"`
	// Attempts is the number of runs begun, counting runs interrupted by
	// a daemon crash; 0 for jobs served straight from the store.
	Attempts int `json:"attempts,omitempty"`
	// Replayed marks jobs recovered from the journal after a restart.
	Replayed bool       `json:"replayed,omitempty"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	// CPI is the job's per-scheme CPI-stack summary (bucket order:
	// ooo.CPIBucketNames), populated when the job actually simulated.
	CPI map[string]experiments.CPITotals `json:"cpi,omitempty"`
	// Worker is the fleet member a coordinator placed the job on (or
	// last placed it on); a single node never sets it.
	Worker string `json:"worker,omitempty"`
}

// Terminal reports whether st is done, failed or cancelled.
func (st JobState) Terminal() bool {
	return st == JobDone || st == JobFailed || st == JobCancelled
}

// Job is one entry of a Table. ID, Key and Request never change; the
// rest is guarded by the table's lock and read through its methods.
type Job struct {
	ID      string
	Key     string
	Request Request

	state    JobState
	worker   string // fleet member the job is placed on ("" = unplaced)
	remoteID string // the job's ID on that worker
	attempts int    // runs begun plus posts landed, across restarts
	held     bool   // an executor claimed it; only that executor moves it
	waiting  bool   // in retry backoff: keeps its place, claimed once it ends
	cancel   bool   // the client asked for cancellation
	stop     context.CancelFunc
	cacheHit bool
	replayed bool
	err      string
	errKind  string
	cpi      map[string]experiments.CPITotals

	created  time.Time
	started  time.Time
	finished time.Time
	done     chan struct{} // closed on entry to a terminal state
}

// Placement returns the worker a job is placed on and its ID there.
// Caller holds the table's lock.
func (job *Job) Placement() (worker, remoteID string) { return job.worker, job.remoteID }

// CancelRequested reports whether the client asked to cancel the job.
// Caller holds the table's lock.
func (job *Job) CancelRequested() bool { return job.cancel }

// Policy is what a role decides about its table. Every field comes from
// a setting the role already has.
type Policy struct {
	// IDPrefix starts every job ID: "j" on a node, "c" on a coordinator.
	IDPrefix string
	// Capacity is how many non-terminal jobs Submit admits: the role's
	// QueueDepth plus the jobs it runs itself.
	Capacity int
	// Retain caps the terminal jobs kept for status queries.
	Retain int
	// MaxAttempts is how many runs or posts a job may use up before a
	// return to the queue fails it instead.
	MaxAttempts int
	// Lookup reports whether the role's store already holds a key.
	Lookup func(key string) bool
	// Backoff, when set, is the delay before a requeued job may run
	// again, given the attempts it has used (nil = no delay); it is
	// called under the table's lock. After times the delay.
	Backoff func(attempts int) time.Duration
	After   func(time.Duration) <-chan time.Time
}

// Table is the job table behind every acbd role: IDs, submission order,
// key dedup, admission, retention, one claim queue, one attempt budget,
// the transitions with their counters and journal records, statuses,
// Wait, Cancel and replay. The role's executors — a node's workers, a
// coordinator's lanes — Claim jobs from it and report back through the
// *Locked methods, holding the table's lock (Lock/Unlock), which also
// guards whatever role state must change atomically with the jobs.
type Table struct {
	p        Policy
	journal  *Journal
	counters *stats.Counters
	logf     func(format string, args ...interface{})

	mu       sync.Mutex
	cond     *sync.Cond // signals executors that the queue changed
	jobs     map[string]*Job
	order    []string        // submission order: listing, claims, eviction
	byKey    map[string]*Job // non-terminal job per result key (dedup)
	terminal int
	nextID   int64
	closed   bool
	drain    chan struct{} // closed by Close; ends backoff waits
}

// NewTable returns an empty table. Transitions are journaled to journal
// (nil = not journaled) and counted in counters.
func NewTable(p Policy, journal *Journal, counters *stats.Counters, logf func(string, ...interface{})) *Table {
	t := &Table{p: p, journal: journal, counters: counters, logf: logf,
		jobs: make(map[string]*Job), byKey: make(map[string]*Job), drain: make(chan struct{})}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// Journal returns the table's write-ahead log (nil when disabled).
func (t *Table) Journal() *Journal { return t.journal }

// Counters returns the role's monotonic counters: submitted, rejected,
// deduped, cache_hits, replayed, interrupted, journal_errors, journal
// replays, one per requeue cause (retried on a node; rehashed,
// requeued_lost and requeued_cancelled on a coordinator) and one per
// terminal state (done, failed, cancelled), plus the role's own.
func (t *Table) Counters() *stats.Counters { return t.counters }

// Lock takes the table's lock.
func (t *Table) Lock() { t.mu.Lock() }

// Unlock releases the table's lock.
func (t *Table) Unlock() { t.mu.Unlock() }

// Broadcast wakes every executor blocked in Claim, so each re-checks its
// quit condition. Caller holds the lock.
func (t *Table) Broadcast() { t.cond.Broadcast() }

// journaled counts and logs a failed append of id's record. A failing
// journal costs durability, not availability: the transition goes ahead.
func (t *Table) journaled(id string, err error) {
	if err != nil {
		t.counters.Add("journal_errors", 1)
		t.logf("acbd: %s: journal append: %v", id, err)
	}
}

// JournalMember records a worker liveness transition.
func (t *Table) JournalMember(name string, alive bool) {
	t.journaled(name, t.journal.Member(name, alive))
}

func (t *Table) addLocked(id, key string, req Request, attempts int) *Job {
	job := &Job{ID: id, Key: key, Request: req, state: JobQueued, attempts: attempts,
		created: time.Now(), done: make(chan struct{})}
	t.jobs[id] = job
	t.order = append(t.order, id)
	return job
}

// Restore loads journal-replayed jobs in submission order, before any
// executor starts; admission does not apply. Terminal jobs come back
// closed, so status queries survive a restart. A pending job whose
// result the store already holds completes as a cache hit. The rest
// rejoin the queue, a placed job on its worker, unless an unplaced one
// has used up its attempts.
func (t *Table) Restore(replay []ReplayJob) {
	cached := make([]bool, len(replay))
	for i, rj := range replay {
		// Asked before taking the lock: on a worker a lookup may be a
		// peer fetch.
		cached[i] = !rj.State.Terminal() && t.p.Lookup(rj.Key)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(replay) > 0 {
		t.counters.Add("journal_replays", 1)
	}
	now := time.Now()
	for i, rj := range replay {
		if n, err := strconv.ParseInt(strings.TrimPrefix(rj.ID, t.p.IDPrefix), 10, 64); err == nil && n > t.nextID {
			t.nextID = n
		}
		job := t.addLocked(rj.ID, rj.Key, rj.Request, rj.Attempt)
		job.replayed = true
		job.worker, job.remoteID = rj.Worker, rj.RemoteID
		t.counters.Add("replayed", 1)
		if rj.Interrupted {
			t.counters.Add("interrupted", 1)
		}
		switch {
		case rj.State.Terminal():
			job.state, job.err, job.errKind, job.finished = rj.State, rj.Err, rj.ErrKind, now
			close(job.done)
			t.terminal++
		case cached[i]:
			// The result landed before the crash; only the terminal
			// record is missing.
			job.cacheHit = true
			t.counters.Add("cache_hits", 1)
			t.finishLocked(job, JobDone, "", "", true)
		case rj.Worker == "" && rj.Attempt >= t.p.MaxAttempts:
			t.finishLocked(job, JobFailed, fmt.Sprintf("service: interrupted by a restart (attempt %d/%d: attempts exhausted)",
				rj.Attempt, t.p.MaxAttempts), ErrKindTransient, true)
		default:
			t.byKey[job.Key] = job
			t.logf("acbd: %s replayed (attempt %d, interrupted=%v): %s",
				job.ID, job.attempts, rj.Interrupted, job.Request.Experiment)
		}
	}
	t.evictLocked()
}

// Submit admits req: (status, created, error). A request whose key a
// non-terminal job already has coalesces onto that job; a key the
// store already holds is born done as a cache hit; past Capacity
// non-terminal jobs it is ErrQueueFull, and once closed
// ErrShuttingDown. With a journal, the job is acknowledged only after
// its submit record is fsync'd.
func (t *Table) Submit(req Request) (JobStatus, bool, error) {
	key, err := req.Key() // validates and canonicalizes req
	if err != nil {
		return JobStatus{}, false, err
	}
	// The store lookup runs with the lock released: on a worker a local
	// miss is a peer fetch, and status queries, a coordinator's probe and
	// readiness must not wait behind another node. So dedup is checked
	// before it (a duplicate never touches the store) and again after it
	// (a twin may have been admitted meanwhile).
	t.mu.Lock()
	st, answered, err := t.coalesceLocked(key)
	t.mu.Unlock()
	if answered {
		return st, false, err
	}
	cached := t.p.Lookup(key)

	t.mu.Lock()
	defer t.mu.Unlock()
	if st, answered, err := t.coalesceLocked(key); answered {
		return st, false, err
	}
	if !cached && len(t.jobs)-t.terminal >= t.p.Capacity {
		// Rejections never inflate "submitted" (capacity accounting).
		t.counters.Add("rejected", 1)
		return JobStatus{}, false, ErrQueueFull
	}
	t.nextID++
	job := t.addLocked(fmt.Sprintf("%s%06d", t.p.IDPrefix, t.nextID), key, req, 0)
	t.counters.Add("submitted", 1)
	t.journaled(job.ID, t.journal.Submit(job.ID, key, req, 0))
	if cached {
		job.cacheHit = true
		t.counters.Add("cache_hits", 1)
		t.finishLocked(job, JobDone, "", "", true)
		return t.statusLocked(job), true, nil
	}
	t.byKey[key] = job
	t.cond.Broadcast()
	t.logf("acbd: %s queued: %s key=%.12s", job.ID, req.Experiment, key)
	return t.statusLocked(job), true, nil
}

// coalesceLocked answers a submission without a new job where it can:
// ErrShuttingDown once closed, or the non-terminal job with the same
// key. answered is false when a new job is needed.
func (t *Table) coalesceLocked(key string) (st JobStatus, answered bool, err error) {
	if t.closed {
		return JobStatus{}, true, ErrShuttingDown
	}
	if prior := t.byKey[key]; prior != nil {
		t.counters.Add("deduped", 1)
		return t.statusLocked(prior), true, nil
	}
	return JobStatus{}, false, nil
}

// Job returns the identified job's status.
func (t *Table) Job(id string) (JobStatus, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	job, ok := t.jobs[id]
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	return t.statusLocked(job), nil
}

// Jobs returns every retained job's status in submission order.
func (t *Table) Jobs() []JobStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]JobStatus, 0, len(t.order))
	for _, id := range t.order {
		out = append(out, t.statusLocked(t.jobs[id]))
	}
	return out
}

// JobCounts returns the retained jobs per state.
func (t *Table) JobCounts() map[JobState]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[JobState]int, len(States))
	for _, st := range States {
		out[st] = 0
	}
	for _, job := range t.jobs {
		out[job.state]++
	}
	return out
}

// Wait blocks until the job is terminal or ctx is done.
func (t *Table) Wait(ctx context.Context, id string) (JobStatus, error) {
	t.mu.Lock()
	job, ok := t.jobs[id]
	t.mu.Unlock()
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	select {
	case <-job.done:
		return t.Job(id)
	case <-ctx.Done():
		return JobStatus{}, ctx.Err()
	}
}

// Cancel requests cancellation. A job that no executor holds and no
// worker has is cancelled at once. Otherwise its holder is told: a
// node's run context is cancelled, and a coordinator's lane sends the
// worker's DELETE on its next loop. Terminal jobs stay as they are.
func (t *Table) Cancel(id string) (JobStatus, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	job, ok := t.jobs[id]
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	if !job.state.Terminal() {
		job.cancel = true
		switch {
		case !job.held && job.worker == "":
			t.finishLocked(job, JobCancelled, "cancelled while queued", "", true)
		case job.stop != nil:
			job.stop()
		}
	}
	return t.statusLocked(job), nil
}

// Closed reports whether Close has been called.
func (t *Table) Closed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

// Close stops admission. Jobs waiting out a retry backoff fail at once,
// without a terminal record, so a restart resumes them; Claim hands out
// the jobs still queued and then returns nil.
func (t *Table) Close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	t.closed = true
	close(t.drain)
	var waiting []*Job
	for _, id := range t.order {
		if job := t.jobs[id]; job.waiting && job.state == JobQueued {
			waiting = append(waiting, job)
		}
	}
	for _, job := range waiting {
		t.abandonLocked(job, job.err)
	}
	t.cond.Broadcast()
}

// abandonLocked fails a job a draining role will not retry. No terminal
// record is written, so a journaled job resumes on restart.
func (t *Table) abandonLocked(job *Job, cause string) {
	t.finishLocked(job, JobFailed, cause+" (retry abandoned: shutting down; journaled jobs resume on restart)",
		ErrKindTransient, false)
}

// Claim blocks until a job is runnable for worker ("" on a node) and
// hands it to the caller, who holds it until it finishes or is
// requeued: the oldest job placed on worker first, else the oldest
// unplaced one, skipping jobs in backoff. It returns nil when quit
// (called under the lock; nil = never) reports true, or when the table
// is closed and nothing is left to claim.
func (t *Table) Claim(worker string, quit func() bool) *Job {
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if quit != nil && quit() {
			return nil
		}
		var next *Job
		for _, id := range t.order {
			job := t.jobs[id]
			if job.held || job.waiting || job.state.Terminal() {
				continue
			}
			if job.worker == worker {
				next = job
				break
			}
			if job.worker == "" && next == nil {
				next = job
			}
		}
		if next != nil {
			next.held = true
			return next
		}
		if t.closed {
			return nil
		}
		t.cond.Wait()
	}
}

// StartLocked records that a run of a held job has begun (worker "")
// or that a post of it landed on worker as remoteID, which places it
// there. Either uses one attempt. A run moves the job to running and
// is cancelled through stop, at once if the client already asked.
func (t *Table) StartLocked(job *Job, worker, remoteID string, stop context.CancelFunc) {
	job.attempts++
	job.worker, job.remoteID = worker, remoteID
	t.journaled(job.ID, t.journal.Start(job.ID, job.attempts, worker, remoteID))
	if worker == "" {
		job.state = JobRunning
		job.started = time.Now()
	}
	job.stop = stop
	if stop != nil && job.cancel {
		stop()
	}
}

// ObserveLocked mirrors the state a held job's worker reports. A job
// the worker reports done reads as running until its result is durable
// here.
func (t *Table) ObserveLocked(job *Job, st JobStatus) {
	switch st.State {
	case JobQueued:
		job.state = JobQueued
	case JobRunning, JobDone:
		job.state = JobRunning
		if job.started.IsZero() {
			job.started = time.Now()
			if st.Started != nil {
				job.started = *st.Started
			}
		}
	}
}

// Release hands back a claimed job its executor never started (a post
// that did not land), for any executor to claim again.
func (t *Table) Release(job *Job) {
	t.mu.Lock()
	defer t.mu.Unlock()
	job.held = false
	t.cond.Broadcast()
}

// RequeueLocked returns a job to the queue after its run failed or its
// worker lost it, counting the return under cause; errMsg (may be
// empty) stays on the job while it waits. A job the client cancelled
// ends cancelled, one that has used MaxAttempts fails, and once the
// table is closed the rest fail without a terminal record. Otherwise it
// keeps its place, unplaced, and waits out the Backoff.
func (t *Table) RequeueLocked(job *Job, cause, errMsg string) {
	job.held = false
	if job.state.Terminal() {
		return
	}
	job.worker, job.remoteID, job.stop = "", "", nil
	switch {
	case job.cancel:
		t.finishLocked(job, JobCancelled, "cancelled", "", true)
	case job.attempts >= t.p.MaxAttempts:
		if errMsg == "" {
			errMsg = "service: " + cause
		}
		t.finishLocked(job, JobFailed, fmt.Sprintf("%s (attempt %d/%d: attempts exhausted)",
			errMsg, job.attempts, t.p.MaxAttempts), ErrKindTransient, true)
	case t.closed:
		t.abandonLocked(job, errMsg)
	default:
		job.state, job.err = JobQueued, errMsg
		t.counters.Add(cause, 1)
		t.journaled(job.ID, t.journal.Requeue(job.ID, job.attempts, cause))
		t.logf("acbd: %s requeued (%s) after attempt %d/%d: %s", job.ID, cause, job.attempts, t.p.MaxAttempts, errMsg)
		if t.p.Backoff != nil {
			job.waiting = true
			go t.backoff(job, t.p.Backoff(job.attempts))
		}
		t.cond.Broadcast()
	}
}

// backoff ends a requeued job's wait once delay has passed. Close ends
// it first when the table drains (and fails the job).
func (t *Table) backoff(job *Job, delay time.Duration) {
	select {
	case <-t.p.After(delay):
	case <-t.drain:
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	job.waiting = false
	t.cond.Broadcast()
}

// FinishLocked moves a job to a terminal state, journaled, with cpi
// (may be nil) as its CPI-stack summary.
func (t *Table) FinishLocked(job *Job, state JobState, errMsg, errKind string, cpi map[string]experiments.CPITotals) {
	if len(cpi) > 0 {
		job.cpi = cpi
	}
	t.finishLocked(job, state, errMsg, errKind, true)
}

// StopLocked ends a job whose run a drain deadline cut off: cancelled
// here, but with no terminal record, so a restart runs it again.
func (t *Table) StopLocked(job *Job, errMsg string) {
	t.finishLocked(job, JobCancelled, errMsg, "", false)
}

// finishLocked moves a job to a terminal state exactly once. The
// terminal record (when journal is set) is appended before the
// transition, so a crash between the two replays the job as still in
// flight: at-least-once journaling, made exactly-once by content
// addressing.
func (t *Table) finishLocked(job *Job, state JobState, errMsg, errKind string, journal bool) {
	if job.state.Terminal() {
		return
	}
	if journal {
		t.journaled(job.ID, t.journal.Terminal(job.ID, state, errMsg, errKind))
	}
	job.state, job.err, job.errKind = state, errMsg, errKind
	job.finished = time.Now()
	job.waiting = false
	if t.byKey[job.Key] == job {
		delete(t.byKey, job.Key)
	}
	close(job.done)
	t.terminal++
	t.counters.Add(string(state), 1)
	t.evictLocked()
	t.logf("acbd: %s %s (%s)", job.ID, state, job.Request.Experiment)
}

// evictLocked drops the oldest terminal jobs, in submission order,
// until at most Retain remain. Active jobs are never evicted, and an
// evicted job's result stays fetchable by key.
func (t *Table) evictLocked() {
	for i := 0; t.terminal > t.p.Retain && i < len(t.order); {
		if job := t.jobs[t.order[i]]; job.state.Terminal() {
			delete(t.jobs, job.ID)
			t.order = append(t.order[:i], t.order[i+1:]...)
			t.terminal--
			continue
		}
		i++
	}
}

// PlacedLocked counts the non-terminal jobs placed on each worker.
func (t *Table) PlacedLocked() map[string]int {
	out := make(map[string]int)
	for _, job := range t.jobs {
		if !job.state.Terminal() && job.worker != "" {
			out[job.worker]++
		}
	}
	return out
}

// AdoptLocked places the pending, unplaced, unheld job with key on
// worker as remoteID — work that reached the worker without its
// placement being journaled. It reports whether a job was adopted.
func (t *Table) AdoptLocked(key, worker, remoteID string) bool {
	job := t.byKey[key]
	if job == nil || job.worker != "" || job.held {
		return false
	}
	t.StartLocked(job, worker, remoteID, nil)
	return true
}

// RequeueWorkerLocked returns to the queue every job placed on worker
// that no executor holds, counting each under cause.
func (t *Table) RequeueWorkerLocked(worker, cause string) {
	var placed []*Job
	for _, id := range t.order {
		if job := t.jobs[id]; job.worker == worker && !job.held && !job.state.Terminal() {
			placed = append(placed, job)
		}
	}
	for _, job := range placed {
		t.RequeueLocked(job, cause, "")
	}
}

// statusLocked builds a job's status.
func (t *Table) statusLocked(job *Job) JobStatus {
	st := JobStatus{
		ID:         job.ID,
		State:      job.state,
		Experiment: job.Request.Experiment,
		Request:    job.Request,
		ResultKey:  job.Key,
		CacheHit:   job.cacheHit,
		Error:      job.err,
		Attempts:   job.attempts,
		Replayed:   job.replayed,
		Created:    job.created,
		CPI:        job.cpi,
		Worker:     job.worker,
	}
	if job.state == JobFailed {
		st.ErrorKind = job.errKind
	}
	if !job.started.IsZero() {
		ts := job.started
		st.Started = &ts
	}
	if !job.finished.IsZero() {
		ts := job.finished
		st.Finished = &ts
	}
	return st
}
