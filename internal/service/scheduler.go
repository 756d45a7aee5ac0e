package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"acb/internal/experiments"
	"acb/internal/stats"
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

// SchedulerConfig configures a Scheduler.
type SchedulerConfig struct {
	// QueueDepth bounds the jobs waiting beyond the Workers running ones;
	// submissions past QueueDepth+Workers non-terminal jobs fail fast with
	// ErrQueueFull (backpressure instead of unbounded memory). Default 64.
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
	// retries + runs interrupted by crashes or a drain deadline). Default 3.
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
	// Replay lists journal-recovered jobs to restore before the workers
	// start (from OpenJournal).
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

// Scheduler is a node's role: its job table (embedded, so the
// scheduler serves the job API) and the worker pool that executes it.
// Each worker claims the oldest queued job and runs its experiment.
type Scheduler struct {
	*Table
	cfg       SchedulerConfig
	store     *Store
	runStats  *experiments.RunnerStats
	counters  *stats.Counters
	durations *stats.Histogram
	cpiStats  *experiments.CPIAccumulator
	retryRng  *rand.Rand // jitter source; guarded by the table's lock

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup
}

// NewScheduler starts a scheduler with cfg's worker pool over the given
// store. Journal-recovered jobs (cfg.Replay) are restored, in their
// original submission order and ahead of any new submission, before the
// workers start.
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
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		cfg:        cfg,
		store:      store,
		runStats:   &experiments.RunnerStats{},
		counters:   stats.NewCounters(),
		durations:  stats.NewHistogram(JobDurationBounds...),
		cpiStats:   experiments.NewCPIAccumulator(),
		retryRng:   rand.New(rand.NewSource(cfg.RetrySeed)),
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	s.Table = NewTable(Policy{
		IDPrefix:    "j",
		Capacity:    cfg.QueueDepth + cfg.Workers,
		Retain:      cfg.RetainJobs,
		MaxAttempts: cfg.MaxAttempts,
		Lookup:      func(key string) bool { _, ok := store.Get(key); return ok },
		// The run after attempt N waits min(RetryMax, RetryBase<<(N-1)).
		Backoff: func(attempts int) time.Duration {
			return Backoff(attempts-1, cfg.RetryBase, cfg.RetryMax, s.retryRng)
		},
		After: cfg.After,
	}, cfg.Journal, s.counters, cfg.Logf)
	cfg.Journal.SetFaults(cfg.Faults)
	s.Restore(cfg.Replay)
	s.wg.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go s.worker()
	}
	return s
}

// Store returns the scheduler's result store.
func (s *Scheduler) Store() *Store { return s.store }

// RunnerStats returns the cumulative experiment-runner totals.
func (s *Scheduler) RunnerStats() *experiments.RunnerStats { return s.runStats }

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

// Ready reports whether the scheduler is accepting work: false once
// draining has begun, with the reason.
func (s *Scheduler) Ready() (bool, string) {
	if s.Closed() {
		return false, "draining for shutdown"
	}
	return true, ""
}

// Workers returns how many jobs run concurrently (SchedulerConfig.Workers
// after defaults).
func (s *Scheduler) Workers() int { return s.cfg.Workers }

// Shutdown stops accepting submissions and drains: queued and running
// jobs complete normally, while jobs waiting out a retry backoff fail
// fast. If ctx expires first, the remaining jobs' simulation contexts
// are cancelled and Shutdown returns ctx.Err() once they have unwound.
// Neither leaves a terminal journal record, so a restart resumes them.
// The write-through store needs no separate persist step.
func (s *Scheduler) Shutdown(ctx context.Context) error {
	s.Close()
	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
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
	if cerr := s.Journal().Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// worker claims and runs jobs until the table is closed and drained, or
// a drain deadline has cancelled every run.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		job := s.Claim("", func() bool { return s.baseCtx.Err() != nil })
		if job == nil {
			return
		}
		s.run(job)
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

// run executes one claimed job's attempt and reports its outcome to the
// table: done, cancelled, failed on its deadline, or requeued for a
// retry with backoff.
func (s *Scheduler) run(job *Job) {
	timeout := s.jobTimeout(job.Request)
	ctx, cancel := context.WithCancel(s.baseCtx)
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(s.baseCtx, timeout)
	}
	defer cancel()
	s.Lock()
	s.StartLocked(job, "", "", cancel)
	s.Unlock()

	start := time.Now()
	jobCPI := experiments.NewCPIAccumulator()
	tab, err := s.execute(ctx, job, jobCPI)
	s.durations.Observe(time.Since(start).Seconds())
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

	s.Lock()
	defer s.Unlock()
	switch {
	case err == nil:
		s.FinishLocked(job, JobDone, "", "", jobCPI.Snapshot())
	case errors.Is(err, context.Canceled) && job.CancelRequested():
		s.FinishLocked(job, JobCancelled, err.Error(), "", jobCPI.Snapshot())
	case errors.Is(err, context.Canceled):
		// A drain deadline cut the run off: the job is not over, so a
		// restart must run it again.
		s.StopLocked(job, err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		s.counters.Add("deadline_exceeded", 1)
		s.FinishLocked(job, JobFailed, fmt.Sprintf("service: deadline exceeded after %s (timeout %s)",
			time.Since(start).Round(time.Millisecond), timeout), ErrKindDeadline, jobCPI.Snapshot())
	default:
		s.RequeueLocked(job, "retried", err.Error())
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
