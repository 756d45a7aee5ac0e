package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
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

// FaultPoints is the hook the scheduler and store fire at their
// injection points ("worker", "worker.slow", "store.persist",
// "store.load"). A faultinject.Injector implements it; production runs
// leave it nil.
type FaultPoints interface {
	// Fire returns a non-nil error to inject a failure; it may also
	// sleep (slowness) or panic (crash injection) before returning.
	Fire(point string) error
}

// Job is one scheduled experiment. All mutable fields are guarded by the
// scheduler's mutex; read them through Status.
type Job struct {
	ID      string
	Key     string
	Request Request

	state    JobState
	err      string
	errKind  string
	attempts int // runs begun (journal semantics: includes interrupted runs)
	cacheHit bool
	replayed bool
	created  time.Time
	started  time.Time
	finished time.Time
	cpi      map[string]experiments.CPITotals

	// journaled records that this job has a submit record in the WAL, so
	// its terminal transition must be journaled too.
	journaled bool

	cancel context.CancelFunc
	// done is closed on entry to any terminal state.
	done chan struct{}
}

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

// SchedulerConfig configures a Scheduler.
type SchedulerConfig struct {
	// QueueDepth bounds the number of queued (not yet running) jobs;
	// submissions beyond it fail fast with ErrQueueFull (backpressure
	// instead of unbounded memory). Default 64.
	QueueDepth int
	// Workers is the number of jobs running concurrently. Default 1: a
	// single experiment already fans its simulations out over SimJobs
	// workers, so more job-level concurrency mostly helps mixed tiny/huge
	// queues.
	Workers int
	// SimJobs is the per-job simulation parallelism passed through to
	// experiments.Options.Jobs (0 = GOMAXPROCS).
	SimJobs int

	// DefaultTimeout is the per-job deadline applied to requests that
	// set no timeout_ms (0 = no deadline).
	DefaultTimeout time.Duration
	// MaxTimeout caps request-supplied timeouts so a client cannot hold
	// a worker hostage with a huge deadline. Default 1h.
	MaxTimeout time.Duration

	// MaxAttempts bounds how many runs of one job may begin (first run +
	// retries + runs interrupted by crashes). Default 3.
	MaxAttempts int
	// RetryBase and RetryMax shape the exponential backoff between
	// retries of transiently failed jobs (defaults 250ms and 10s); the
	// delay before run N+1 is drawn from [b/2, b] with b =
	// min(RetryMax, RetryBase<<(N-1)) (equal jitter).
	RetryBase time.Duration
	RetryMax  time.Duration
	// RetrySeed seeds the jitter generator, making backoff schedules
	// reproducible in tests (0 = seeded from the clock).
	RetrySeed int64

	// RetainJobs caps how many terminal jobs stay in the job table;
	// beyond it the oldest terminal jobs are evicted in submission order
	// (their persisted results remain fetchable by key). Default 1024.
	RetainJobs int

	// Journal, when non-nil, is the write-ahead log: submissions are
	// acknowledged only after their journal record is fsync'd, and a
	// restarted scheduler re-enqueues the crash survivors (Replay).
	Journal *Journal
	// Replay lists journal-recovered jobs to re-enqueue before the
	// workers start (from OpenJournal).
	Replay []ReplayJob

	// Faults, when non-nil, receives injection-point fires (chaos
	// testing; see internal/faultinject).
	Faults FaultPoints

	// After is the timer source for retry backoff waits (nil =
	// time.After); tests inject it to run backoff schedules instantly.
	After func(time.Duration) <-chan time.Time

	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...interface{})
}

// Scheduler owns the job table, the bounded queue and the worker pool.
type Scheduler struct {
	cfg       SchedulerConfig
	store     *Store
	journal   *Journal
	runStats  *experiments.RunnerStats
	counters  *stats.Counters
	durations *stats.Histogram
	cpiStats  *experiments.CPIAccumulator

	baseCtx    context.Context
	baseCancel context.CancelFunc
	queue      chan *Job
	wg         sync.WaitGroup
	retryWG    sync.WaitGroup
	// drainCh is closed when Shutdown begins; backoff waits abort on it.
	drainCh chan struct{}

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string        // submission order, for listing and eviction
	inflight map[string]*Job // result key -> queued/running job (single-flight)
	terminal int             // jobs in a terminal state (retention accounting)
	retryRng *rand.Rand      // jitter source; guarded by mu
	nextID   int64
	closed   bool
	ready    bool
}

// NewScheduler starts a scheduler with cfg's worker pool over the given
// store. Journal-recovered jobs (cfg.Replay) are re-enqueued, in their
// original submission order and ahead of any new submission, before the
// workers start; the scheduler reports Ready once recovery is complete.
func NewScheduler(cfg SchedulerConfig, store *Store) *Scheduler {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = time.Hour
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 250 * time.Millisecond
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = 10 * time.Second
	}
	if cfg.RetainJobs <= 0 {
		cfg.RetainJobs = 1024
	}
	if cfg.RetrySeed == 0 {
		cfg.RetrySeed = time.Now().UnixNano()
	}
	if cfg.After == nil {
		cfg.After = time.After
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...interface{}) {}
	}
	depth := cfg.QueueDepth
	if len(cfg.Replay) > depth {
		// The queue must hold every crash survivor; backpressure applies
		// to new work, not recovery.
		depth = len(cfg.Replay)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		cfg:        cfg,
		store:      store,
		journal:    cfg.Journal,
		runStats:   &experiments.RunnerStats{},
		counters:   stats.NewCounters(),
		durations:  stats.NewHistogram(JobDurationBounds...),
		cpiStats:   experiments.NewCPIAccumulator(),
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      make(chan *Job, depth),
		drainCh:    make(chan struct{}),
		jobs:       make(map[string]*Job),
		inflight:   make(map[string]*Job),
		retryRng:   rand.New(rand.NewSource(cfg.RetrySeed)),
	}
	s.journal.SetFaults(cfg.Faults)
	s.restore(cfg.Replay)
	s.mu.Lock()
	s.ready = true
	s.mu.Unlock()
	s.wg.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go s.worker()
	}
	return s
}

// restore re-enqueues journal-recovered jobs. Runs before the workers
// start, so recovered work keeps its pre-crash order.
func (s *Scheduler) restore(replay []ReplayJob) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(replay) > 0 {
		// One replay event per recovery, however many jobs it carried
		// (the per-job count is the "replayed" event).
		s.counters.Add("journal_replays", 1)
	}
	for _, rj := range replay {
		job := &Job{
			ID:        rj.ID,
			Key:       rj.Key,
			Request:   rj.Request,
			attempts:  rj.Attempt,
			replayed:  true,
			journaled: true,
			created:   time.Now(),
			state:     JobQueued,
			done:      make(chan struct{}),
		}
		// Keep fresh IDs past every recovered one.
		if n, err := strconv.ParseInt(strings.TrimPrefix(rj.ID, "j"), 10, 64); err == nil && n > s.nextID {
			s.nextID = n
		}
		s.jobs[job.ID] = job
		s.order = append(s.order, job.ID)
		s.counters.Add("replayed", 1)
		if rj.Interrupted {
			s.counters.Add("interrupted", 1)
		}

		// Crash window between persist and the terminal journal record:
		// the result is already durable, so complete without re-running.
		if _, ok := s.store.Get(rj.Key); ok {
			job.cacheHit = true
			s.counters.Add("cache_hits", 1)
			s.finishLocked(job, JobDone, "")
			continue
		}
		if job.attempts >= s.cfg.MaxAttempts {
			job.errKind = ErrKindTransient
			s.finishLocked(job, JobFailed,
				fmt.Sprintf("service: %d attempts exhausted across restarts", job.attempts))
			continue
		}
		s.inflight[job.Key] = job
		s.queue <- job // capacity ≥ len(replay): never blocks
		s.cfg.Logf("acbd: %s replayed (attempt %d, interrupted=%v): %s",
			job.ID, job.attempts, rj.Interrupted, job.Request.Experiment)
	}
}

// Store returns the scheduler's result store.
func (s *Scheduler) Store() *Store { return s.store }

// Journal returns the scheduler's write-ahead log (nil when disabled).
func (s *Scheduler) Journal() *Journal { return s.journal }

// RunnerStats returns the cumulative experiment-runner totals.
func (s *Scheduler) RunnerStats() *experiments.RunnerStats { return s.runStats }

// Counters returns the scheduler's monotonic counters (submitted,
// rejected, deduped, cache_hits, simulated, retried, replayed,
// interrupted, deadline_exceeded, journal_errors, done, failed,
// cancelled).
func (s *Scheduler) Counters() *stats.Counters { return s.counters }

// JobDurationBounds are the per-job wall-duration histogram bucket upper
// bounds in seconds, spanning tiny smoke budgets to full-suite sweeps.
var JobDurationBounds = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300}

// Durations returns the per-job wall-duration histogram (every executed
// run observes one sample on completion, including runs that are later
// retried; cache hits and queue-cancelled jobs never ran and are
// excluded).
func (s *Scheduler) Durations() *stats.Histogram { return s.durations }

// CPIStats returns the service-lifetime per-scheme CPI-stack totals
// accumulated across every simulated job.
func (s *Scheduler) CPIStats() *experiments.CPIAccumulator { return s.cpiStats }

// Ready reports whether the scheduler is accepting and executing work:
// false while journal replay is still populating the queue and once
// draining has begun. The reason string explains a false answer.
func (s *Scheduler) Ready() (bool, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return false, "draining for shutdown"
	case !s.ready:
		return false, "replaying journal"
	}
	return true, ""
}

// Submit schedules req. Returns the job snapshot and whether a new job
// was created: an in-flight identical request coalesces onto the
// existing job (single-flight) and a stored result completes immediately
// as a cache hit without touching the queue. Backpressure: ErrQueueFull
// when the queue is at capacity. With a journal, acceptance is
// acknowledged only after the submit record is fsync'd.
func (s *Scheduler) Submit(req Request) (JobStatus, bool, error) {
	key, err := req.Key() // validates and canonicalizes req
	if err != nil {
		return JobStatus{}, false, err
	}

	// The store lookup runs with s.mu released: on a worker a local miss
	// is a peer fetch, and status queries, the coordinator's probe and
	// readiness must not wait behind another node. So the in-flight check
	// comes before it (a duplicate never touches the store) and again
	// after it (a twin may have been submitted meanwhile).
	s.mu.Lock()
	st, answered, err := s.coalesceLocked(key)
	s.mu.Unlock()
	if answered {
		return st, false, err
	}
	_, cached := s.store.Get(key)

	s.mu.Lock()
	defer s.mu.Unlock()
	if st, answered, err := s.coalesceLocked(key); answered {
		return st, false, err
	}

	job := &Job{
		ID:      fmt.Sprintf("j%06d", s.nextID+1),
		Key:     key,
		Request: req,
		created: time.Now(),
		done:    make(chan struct{}),
	}

	if cached {
		// Served entirely from the store: record a terminal job so the
		// client can poll/fetch it like any other.
		s.nextID++
		s.counters.Add("submitted", 1)
		job.state = JobDone
		job.cacheHit = true
		job.finished = job.created
		close(job.done)
		s.jobs[job.ID] = job
		s.order = append(s.order, job.ID)
		s.terminal++
		s.counters.Add("cache_hits", 1)
		s.counters.Add("done", 1)
		s.evictLocked()
		return s.statusLocked(job), true, nil
	}

	job.state = JobQueued
	select {
	case s.queue <- job:
	default:
		// Rejected submissions are counted separately and never inflate
		// "submitted" (which feeds capacity accounting).
		s.counters.Add("rejected", 1)
		return JobStatus{}, false, ErrQueueFull
	}
	s.nextID++
	s.counters.Add("submitted", 1)
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.inflight[key] = job
	s.evictLocked()
	if s.journal != nil {
		if jerr := s.journal.Submit(job.ID, key, job.Request, 0); jerr != nil {
			// Non-fatal: the job runs, it just loses crash durability.
			s.counters.Add("journal_errors", 1)
			s.cfg.Logf("acbd: %s: journal submit: %v", job.ID, jerr)
		} else {
			job.journaled = true
		}
	}
	s.cfg.Logf("acbd: %s queued: %s key=%.12s", job.ID, req.Experiment, key)
	return s.statusLocked(job), true, nil
}

// coalesceLocked answers a submission of key without a new job where
// it can: ErrShuttingDown once draining, or the in-flight job with the
// same key (single-flight). answered is false when a new job is needed.
func (s *Scheduler) coalesceLocked(key string) (st JobStatus, answered bool, err error) {
	if s.closed {
		return JobStatus{}, true, ErrShuttingDown
	}
	if prior := s.inflight[key]; prior != nil {
		s.counters.Add("deduped", 1)
		return s.statusLocked(prior), true, nil
	}
	return JobStatus{}, false, nil
}

// Job returns the snapshot of the identified job.
func (s *Scheduler) Job(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	return s.statusLocked(job), nil
}

// Jobs returns every retained job snapshot in submission order.
func (s *Scheduler) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.statusLocked(s.jobs[id]))
	}
	return out
}

// Cancel requests cancellation of the identified job: a queued job is
// cancelled on the spot (its queue slot is skipped by the worker, and a
// pending retry is abandoned), a running job's simulation context is
// cancelled and the job reaches the cancelled state once the core
// stops. Terminal jobs are left untouched.
func (s *Scheduler) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	switch job.state {
	case JobQueued:
		s.finishLocked(job, JobCancelled, "cancelled while queued")
	case JobRunning:
		if job.cancel != nil {
			job.cancel()
		}
	}
	return s.statusLocked(job), nil
}

// Wait blocks until the job reaches a terminal state or ctx is done.
func (s *Scheduler) Wait(ctx context.Context, id string) (JobStatus, error) {
	s.mu.Lock()
	job, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	select {
	case <-job.done:
		return s.Job(id)
	case <-ctx.Done():
		return JobStatus{}, ctx.Err()
	}
}

// QueueDepth returns the number of jobs waiting in the queue.
func (s *Scheduler) QueueDepth() int { return len(s.queue) }

// Workers returns how many jobs run concurrently (SchedulerConfig.Workers
// after defaults).
func (s *Scheduler) Workers() int { return s.cfg.Workers }

// JobCounts returns a gauge of retained jobs per state.
func (s *Scheduler) JobCounts() map[JobState]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[JobState]int, len(States))
	for _, st := range States {
		out[st] = 0
	}
	for _, job := range s.jobs {
		out[job.state]++
	}
	return out
}

// Shutdown stops accepting submissions and drains: queued and running
// jobs complete normally, while jobs waiting out a retry backoff fail
// fast (journaled jobs keep their requeue record, so a restart resumes
// the retry). If ctx expires first, the remaining jobs' simulation
// contexts are cancelled and Shutdown returns ctx.Err() once they have
// unwound. The write-through store needs no separate persist step.
func (s *Scheduler) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.closed
	if !already {
		s.closed = true
		close(s.queue)
		close(s.drainCh)
	}
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		s.retryWG.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		s.baseCancel()
		<-drained
		err = ctx.Err()
	}
	if cerr := s.journal.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// worker drains the queue until Shutdown closes it.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.runJob(job)
	}
}

// jobTimeout resolves a request's effective deadline: the request's
// timeout_ms capped by MaxTimeout, or DefaultTimeout when the request
// sets none (0 = no deadline).
func (s *Scheduler) jobTimeout(req Request) time.Duration {
	d := time.Duration(req.TimeoutMS) * time.Millisecond
	if d <= 0 {
		return s.cfg.DefaultTimeout
	}
	if d > s.cfg.MaxTimeout {
		return s.cfg.MaxTimeout
	}
	return d
}

// execute runs one attempt of the job's experiment, converting worker
// panics (including injected ones) into errors so a poisoned job cannot
// take the daemon down with it.
func (s *Scheduler) execute(ctx context.Context, job *Job, jobCPI *experiments.CPIAccumulator) (tab *stats.Table, err error) {
	defer func() {
		if r := recover(); r != nil {
			if re, ok := r.(error); ok {
				err = fmt.Errorf("service: worker panic: %w", re)
			} else {
				err = fmt.Errorf("service: worker panic: %v", r)
			}
			tab = nil
		}
	}()
	if f := s.cfg.Faults; f != nil {
		f.Fire("worker.slow") // slowness-only point: error kinds ignored here
		if ferr := f.Fire("worker"); ferr != nil {
			return nil, ferr
		}
	}
	opts, err := job.Request.options(s.cfg.SimJobs, s.runStats)
	if err != nil {
		return nil, err
	}
	opts.Context = ctx
	opts.Logf = s.cfg.Logf
	opts.CPIStats = jobCPI
	return experiments.Run(job.Request.Experiment, opts)
}

func (s *Scheduler) runJob(job *Job) {
	s.mu.Lock()
	if job.state != JobQueued { // cancelled while queued or awaiting retry
		s.mu.Unlock()
		return
	}
	timeout := s.jobTimeout(job.Request)
	ctx, cancel := context.WithCancel(s.baseCtx)
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(s.baseCtx, timeout)
	}
	job.state = JobRunning
	job.started = time.Now()
	job.attempts++
	job.cancel = cancel
	attempt := job.attempts
	s.mu.Unlock()
	defer cancel()
	if job.journaled {
		if jerr := s.journal.Start(job.ID); jerr != nil {
			s.counters.Add("journal_errors", 1)
			s.cfg.Logf("acbd: %s: journal start: %v", job.ID, jerr)
		}
	}

	jobCPI := experiments.NewCPIAccumulator()
	tab, err := s.execute(ctx, job, jobCPI)
	s.durations.Observe(time.Since(job.started).Seconds())
	s.cpiStats.Merge(jobCPI)
	if err == nil {
		s.counters.Add("simulated", 1)
		if perr := s.store.Put(job.Key, job.Request, tab); perr != nil {
			// A result that cannot be persisted is a transient job
			// failure: the attempt is retried rather than silently served
			// without durability.
			err = fmt.Errorf("service: persist: %w", perr)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if snap := jobCPI.Snapshot(); len(snap) > 0 {
		job.cpi = snap
	}
	switch {
	case err == nil:
		s.finishLocked(job, JobDone, "")
	case errors.Is(err, context.Canceled):
		s.finishLocked(job, JobCancelled, err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		job.errKind = ErrKindDeadline
		s.counters.Add("deadline_exceeded", 1)
		s.finishLocked(job, JobFailed,
			fmt.Sprintf("service: deadline exceeded after %s (timeout %s)",
				time.Since(job.started).Round(time.Millisecond), timeout))
	default:
		job.errKind = ErrKindTransient
		if attempt < s.cfg.MaxAttempts {
			if !s.closed {
				s.requeueLocked(job, err)
				return
			}
			// Draining: keep the WAL's submit/start record un-terminated
			// so a journaled job's remaining retries resume on restart.
			job.journaled = false
			s.finishLocked(job, JobFailed,
				fmt.Sprintf("%v (retry abandoned: shutting down; journaled jobs resume on restart)", err))
			return
		}
		s.finishLocked(job, JobFailed,
			fmt.Sprintf("%v (attempt %d/%d)", err, attempt, s.cfg.MaxAttempts))
	}
}

// requeueLocked schedules a retry of a transiently failed job: the job
// goes back to queued, its requeue is journaled, and after an
// exponential-backoff delay it rejoins the queue. Caller holds s.mu.
func (s *Scheduler) requeueLocked(job *Job, cause error) {
	job.state = JobQueued
	job.err = cause.Error()
	// The run after attempt N waits min(RetryMax, RetryBase<<(N-1)).
	delay := Backoff(job.attempts-1, s.cfg.RetryBase, s.cfg.RetryMax, s.retryRng)
	s.counters.Add("retried", 1)
	if job.journaled {
		if jerr := s.journal.Requeue(job.ID, job.attempts); jerr != nil {
			s.counters.Add("journal_errors", 1)
			s.cfg.Logf("acbd: %s: journal requeue: %v", job.ID, jerr)
		}
	}
	s.cfg.Logf("acbd: %s retry %d/%d in %s: %v", job.ID, job.attempts+1, s.cfg.MaxAttempts, delay, cause)
	s.retryWG.Add(1)
	go s.retryAfter(job, delay)
}

// retryAfter waits out the backoff, then puts the job back on the
// queue. Draining aborts the wait and fails the job fast — without a
// terminal journal record, so a journaled job's retry resumes on
// restart. A job cancelled during backoff stays cancelled.
func (s *Scheduler) retryAfter(job *Job, delay time.Duration) {
	defer s.retryWG.Done()
	abandon := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if job.state != JobQueued {
			return
		}
		job.journaled = false // keep the requeue record: restart resumes the retry
		s.finishLocked(job, JobFailed,
			fmt.Sprintf("%v (retry abandoned: shutting down; journaled jobs resume on restart)", job.err))
	}
	select {
	case <-s.cfg.After(delay):
	case <-s.drainCh:
		abandon()
		return
	}
	for {
		s.mu.Lock()
		if job.state != JobQueued { // cancelled while waiting
			s.mu.Unlock()
			return
		}
		if s.closed {
			s.mu.Unlock()
			abandon()
			return
		}
		select {
		case s.queue <- job:
			s.mu.Unlock()
			return
		default: // queue momentarily full of new work; try again shortly
		}
		s.mu.Unlock()
		select {
		case <-s.cfg.After(10 * time.Millisecond):
		case <-s.drainCh:
			abandon()
			return
		}
	}
}

// Backoff is the one equal-jitter backoff step every retry loop in acbd
// uses: d = base<<step capped at max (overflow-safe), then a delay drawn
// uniformly from [d/2, d], so a burst of failures does not retry in
// lockstep. Callers own the step numbering and the rng (and its
// locking).
func Backoff(step int, base, max time.Duration, rng *rand.Rand) time.Duration {
	if step < 0 {
		step = 0
	}
	d := max
	if step < 63 && base <= max>>uint(step) {
		d = base << uint(step)
	}
	half := d / 2
	return half + time.Duration(rng.Int63n(int64(half)+1))
}

// finishLocked moves job into a terminal state. Caller holds s.mu.
func (s *Scheduler) finishLocked(job *Job, state JobState, errMsg string) {
	switch job.state {
	case JobDone, JobFailed, JobCancelled:
		return // already terminal
	}
	job.state = state
	job.err = errMsg
	job.finished = time.Now()
	if s.inflight[job.Key] == job {
		delete(s.inflight, job.Key)
	}
	close(job.done)
	s.terminal++
	s.counters.Add(string(state), 1)
	if job.journaled {
		if jerr := s.journal.Terminal(job.ID, state, errMsg); jerr != nil {
			s.counters.Add("journal_errors", 1)
			s.cfg.Logf("acbd: %s: journal terminal: %v", job.ID, jerr)
		}
	}
	s.evictLocked()
	s.cfg.Logf("acbd: %s %s (%s)", job.ID, state, job.Request.Experiment)
}

// evictLocked enforces the terminal-job retention cap: the oldest
// terminal jobs are dropped from the table, in submission order, until
// at most RetainJobs remain. Active jobs are never evicted, and a
// dropped job's persisted result stays fetchable by key. Caller holds
// s.mu.
func (s *Scheduler) evictLocked() {
	for s.terminal > s.cfg.RetainJobs {
		evicted := false
		for i, id := range s.order {
			job := s.jobs[id]
			switch job.state {
			case JobDone, JobFailed, JobCancelled:
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				s.terminal--
				evicted = true
			}
			if evicted {
				break
			}
		}
		if !evicted {
			return // nothing terminal to evict (shouldn't happen)
		}
	}
}

func (s *Scheduler) statusLocked(job *Job) JobStatus {
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
	}
	if job.state == JobFailed {
		st.ErrorKind = job.errKind
	}
	if !job.started.IsZero() {
		t := job.started
		st.Started = &t
	}
	if !job.finished.IsZero() {
		t := job.finished
		st.Finished = &t
	}
	return st
}
