package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"acb/internal/experiments"
	"acb/internal/service"
	"acb/internal/stats"
)

// Member is one worker shard in the static fleet: a stable name (the
// ring and the metrics node label key on it) and a base URL.
type Member struct {
	Name string
	URL  string
}

// Config configures a Coordinator. Zero values take the defaults noted.
type Config struct {
	// Node is the coordinator's own identity for its metrics series.
	Node string
	// Workers is the static fleet. Liveness within it is probed; the set
	// itself does not change at runtime.
	Workers []Member

	// QueueDepth bounds non-terminal cluster jobs; submissions beyond it
	// fail fast with service.ErrQueueFull. Default 4096.
	QueueDepth int
	// RetainJobs bounds terminal job records kept for status queries.
	// Default 1024.
	RetainJobs int

	// ProbeInterval is the heartbeat period (default 500ms);
	// ProbeTimeout bounds one health probe (default 2s); DeadAfter is
	// the consecutive probe failures that declare a worker dead
	// (default 3).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	DeadAfter     int

	// PollInterval is a lane's long-poll window on its job's worker
	// status (default 250ms): a running job's mirrored state is at most
	// this old, while a completion is seen at once. A lane also pauses
	// this long after a failed RPC before retrying.
	PollInterval time.Duration
	// RPCTimeout bounds one job-control RPC (default 10s).
	RPCTimeout time.Duration

	// MaxAssigns bounds how many times one job may be posted to a worker
	// (the first post plus re-posts after a worker death, a lost job or an
	// out-of-band cancel) before the coordinator fails it. Default 6.
	MaxAssigns int

	// Journal is the cluster write-ahead log (nil = not journaled).
	// Every placement, completion and membership transition is appended
	// before the in-memory job table mutates.
	Journal *Journal
	// Replay is the job set recovered from the journal at open, restored
	// into the table before the lanes start: terminal jobs come back
	// queryable, placed jobs are re-attached by their worker's lanes
	// rather than re-run, and unplaced jobs re-enter the queue.
	Replay []ReplayedJob
	// Epoch is the coordinator's fencing epoch, stamped on every RPC.
	// Workers reject RPCs below the highest epoch they have seen, which
	// is what keeps a stale primary harmless after a failover (0 = not
	// clustered for fencing; nothing is stamped).
	Epoch uint64
	// Promoted marks a coordinator born from a standby takeover (counts
	// acbd_failovers_total).
	Promoted bool

	// Faults wires the rpc / rpc.<node> partition points (nil = none).
	Faults service.FaultPoints
	// Logf receives operational logs (default: discard).
	Logf func(format string, args ...interface{})
}

func (cfg *Config) fillDefaults() {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4096
	}
	if cfg.RetainJobs <= 0 {
		cfg.RetainJobs = 1024
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 500 * time.Millisecond
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 3
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 250 * time.Millisecond
	}
	if cfg.RPCTimeout <= 0 {
		cfg.RPCTimeout = 10 * time.Second
	}
	if cfg.MaxAssigns <= 0 {
		cfg.MaxAssigns = 6
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...interface{}) {}
	}
}

// maxSlots bounds the job concurrency a worker may report in its
// listing; a value outside [1, maxSlots] counts as 1.
const maxSlots = 256

// lanesFor is the lane count for a worker reporting job concurrency n:
// n+1, so the worker's own queue never runs dry while a lane completes a
// job.
func lanesFor(n int) int {
	if n < 1 || n > maxSlots {
		n = 1
	}
	return n + 1
}

// member is a fleet entry plus its probed liveness and its lanes. name
// and url are immutable; the rest is guarded by the coordinator's mutex.
type member struct {
	name  string
	url   string
	alive bool
	down  bool // declared dead; cleared when a probe succeeds again
	fails int

	// ctx scopes the current incarnation's lanes: it is cancelled when the
	// member is declared dead, which aborts their RPCs.
	ctx   context.Context
	stop  context.CancelFunc
	lanes int // running lanes of this incarnation
	want  int // lanes the worker's concurrency asks for
}

// cjob is one cluster job. All fields are guarded by the coordinator's
// mutex except id/key/req, which are immutable after creation.
type cjob struct {
	id  string
	key string
	req service.Request

	state    service.JobState
	worker   string // current placement ("" = unplaced)
	remoteID string // job ID on that worker
	assigns  int    // times this job has been posted to a worker
	held     bool   // a lane is driving it; only that lane changes its placement
	cancel   bool   // client requested cancellation
	cacheHit bool
	err      string
	errKind  string
	cpi      map[string]experiments.CPITotals

	created  time.Time
	started  time.Time
	finished time.Time
	done     chan struct{}
}

// JobStatus is a cluster job snapshot: the single-node status type, with
// Worker set to the member the job is (or was) placed on. The alias
// remains because the benchmark (bench/fleet.go) names cluster.JobStatus.
type JobStatus = service.JobStatus

// Coordinator owns cluster state: fleet liveness and every cluster job's
// placement. Work moves by pull: each live worker gets a set of lanes —
// coordinator goroutines that each take the oldest dispatchable job and
// drive it on that worker from post to durable result. One probe loop
// keeps liveness and sizes the lanes; client-facing methods only read or
// flag state under the mutex.
type Coordinator struct {
	cfg     Config
	client  *Client
	store   *service.Store
	journal *Journal
	epoch   uint64
	// ring is the static fleet's ring, the one workers peer-fetch by: it
	// picks replication targets and the results proxy's fetch order.
	ring *Ring

	counters *stats.Counters

	mu       sync.Mutex
	cond     *sync.Cond // on mu: signals lanes that the queue or fleet changed
	fenced   bool       // a higher-epoch coordinator exists; stand down
	members  map[string]*member
	jobs     map[string]*cjob
	byKey    map[string]*cjob // non-terminal jobs by result key (dedup)
	order    []string
	terminal int

	nextID int64
	closed bool
	probed bool // first probe round done (readyz gate)

	ctx     context.Context    // parent of every member's ctx
	stopAll context.CancelFunc // on shutdown or fencing
	stopCh  chan struct{}
	wg      sync.WaitGroup
}

// New builds a Coordinator over the given result store (the
// coordinator's own cache tier for the results proxy; it may be
// memory-only). Call Start to begin probing and dispatching.
func New(cfg Config, store *service.Store) (*Coordinator, error) {
	cfg.fillDefaults()
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("cluster: coordinator needs at least one worker")
	}
	c := &Coordinator{
		cfg:      cfg,
		client:   NewClient(cfg.RPCTimeout, cfg.Faults),
		store:    store,
		journal:  cfg.Journal,
		epoch:    cfg.Epoch,
		counters: stats.NewCounters(),
		members:  make(map[string]*member),
		jobs:     make(map[string]*cjob),
		byKey:    make(map[string]*cjob),
		stopCh:   make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	c.ctx, c.stopAll = context.WithCancel(context.Background())
	names := make([]string, 0, len(cfg.Workers))
	for _, m := range cfg.Workers {
		if m.Name == "" || m.URL == "" {
			return nil, fmt.Errorf("cluster: worker needs name and url, got %+v", m)
		}
		if _, dup := c.members[m.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate worker name %q", m.Name)
		}
		c.members[m.Name] = &member{name: m.Name, url: m.URL}
		names = append(names, m.Name)
	}
	c.ring = NewRing(names...)
	// The coordinator's store fills from whichever worker has a key, so
	// GET /v1/results/{key} works for any completed job, wherever it ran.
	store.SetPeers(c.fetchEnvelope, cfg.RPCTimeout)
	if cfg.Epoch > 0 {
		// Stamp the fencing epoch on every RPC; a 409 carrying a higher
		// epoch means another coordinator has taken over — stand down.
		c.client.SetEpoch(cfg.Epoch, c.onStaleEpoch)
	}
	if cfg.Promoted {
		c.counters.Add("failovers", 1)
	}
	if len(cfg.Replay) > 0 {
		c.counters.Add("journal_replays", 1)
		c.restoreReplay(cfg.Replay)
	}
	return c, nil
}

// onStaleEpoch is the client's fencing hook: some worker has seen a
// higher coordinator epoch, meaning a standby promoted past us. Stop
// touching the fleet — every mutation would bounce with 409 anyway —
// and report not-ready so clients move to the new primary.
func (c *Coordinator) onStaleEpoch(higher uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fenced {
		return
	}
	c.fenced = true
	c.stopAll()
	c.cond.Broadcast()
	c.counters.Add("fenced", 1)
	c.cfg.Logf("cluster: fenced: epoch %d superseded by %d; standing down", c.epoch, higher)
}

// restoreReplay rebuilds the job table from journal replay. Terminal
// jobs are restored closed (status queries across a restart keep
// working); non-terminal jobs whose result is already in the local
// store complete on the spot; the rest re-enter the table with their
// journaled placement, where a lane of that worker re-attaches to the
// remote job — observing work that kept running through the
// coordinator outage — instead of blindly re-running it.
func (c *Coordinator) restoreReplay(replay []ReplayedJob) {
	now := time.Now()
	for _, rj := range replay {
		var n int64
		if _, err := fmt.Sscanf(rj.ID, "c%d", &n); err == nil && n > c.nextID {
			c.nextID = n
		}
		job := &cjob{
			id:       rj.ID,
			key:      rj.Key,
			req:      rj.Request,
			worker:   rj.Worker,
			remoteID: rj.RemoteID,
			assigns:  rj.Assigns,
			state:    service.JobQueued,
			created:  now,
			done:     make(chan struct{}),
		}
		c.jobs[job.id] = job
		c.order = append(c.order, job.id)
		c.counters.Add("replayed", 1)
		switch {
		case terminalState(rj.State):
			job.state = rj.State
			job.err, job.errKind = rj.Err, rj.ErrKind
			job.finished = now
			close(job.done)
			c.terminal++
		default:
			c.byKey[job.key] = job
			if c.members[job.worker] == nil {
				// Unplaced, or placed on a worker no longer in the fleet.
				job.worker, job.remoteID = "", ""
			}
			if _, cached := c.store.GetLocal(rj.Key); cached {
				// The result landed before the crash; the journal just
				// missed the terminal record. Close it out, durably.
				job.worker, job.remoteID = "", ""
				c.counters.Add("cache_hits", 1)
				c.finishLocked(job, service.JobDone, "", "")
			}
		}
	}
	c.evictLocked()
}

// jlog counts a failed journal append. The append already happened (or
// failed) before the state transition; a failing journal degrades
// durability, not availability, and the metric is the alarm.
func (c *Coordinator) jlog(err error) {
	if err != nil {
		c.counters.Add("journal_errors", 1)
		c.cfg.Logf("cluster: journal append: %v", err)
	}
}

// Epoch returns the coordinator's fencing epoch (0 = unfenced setup).
func (c *Coordinator) Epoch() uint64 { return c.epoch }

// Fenced reports whether a higher-epoch coordinator has taken over.
func (c *Coordinator) Fenced() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fenced
}

// Journal returns the cluster journal (nil when not journaled).
func (c *Coordinator) Journal() *Journal { return c.journal }

// Done is closed when the coordinator shuts down (stream handlers hang
// off it).
func (c *Coordinator) Done() <-chan struct{} { return c.stopCh }

// Start launches the probe loop, which starts each worker's lanes once
// the worker answers.
func (c *Coordinator) Start() {
	c.wg.Add(1)
	go c.run()
}

// Shutdown stops the probe loop and the lanes. Worker daemons are
// separate processes and keep draining on their own; in-flight cluster
// job records freeze at their last observed state.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	close(c.stopCh)
	c.stopAll()
	c.cond.Broadcast()
	c.mu.Unlock()

	doneCh := make(chan struct{})
	go func() { c.wg.Wait(); close(doneCh) }()
	select {
	case <-doneCh:
		// No terminal records are written here: for the journal, shutdown
		// is a crash, and replay + lane re-attachment is the recovery path
		// either way.
		return c.journal.Close()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Store returns the coordinator's result store.
func (c *Coordinator) Store() *service.Store { return c.store }

// Counters returns the cluster event counters.
func (c *Coordinator) Counters() *stats.Counters { return c.counters }

// Ready reports whether the coordinator can accept work: the first
// probe round has completed and at least one worker is alive.
func (c *Coordinator) Ready() (bool, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.closed:
		return false, "shutting down"
	case c.fenced:
		return false, fmt.Sprintf("fenced: a newer coordinator (epoch > %d) has taken over", c.epoch)
	case !c.probed:
		return false, "first probe round pending"
	case c.aliveLocked() == 0:
		return false, "no live workers"
	}
	return true, ""
}

func (c *Coordinator) aliveLocked() int {
	n := 0
	for _, m := range c.members {
		if m.alive {
			n++
		}
	}
	return n
}

// Workers is the fleet's job concurrency: the sum, over live workers,
// of the concurrency each last reported in its listing, validated as
// for its lanes (lanesFor). The GET /v1/jobs listing reports it.
func (c *Coordinator) Workers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, m := range c.members {
		if m.alive {
			n += m.want - 1 // want = lanesFor(n) = n+1
		}
	}
	return n
}

// MemberStatus is one fleet entry's probed state, for GET /v1/cluster.
type MemberStatus struct {
	Name  string `json:"name"`
	URL   string `json:"url"`
	Alive bool   `json:"alive"`
	Jobs  int    `json:"jobs"` // non-terminal cluster jobs placed here
}

// Members snapshots the fleet, sorted by name.
func (c *Coordinator) Members() []MemberStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	assigned := make(map[string]int)
	for _, job := range c.jobs {
		if !terminalState(job.state) && job.worker != "" {
			assigned[job.worker]++
		}
	}
	out := make([]MemberStatus, 0, len(c.members))
	for _, m := range c.members {
		out = append(out, MemberStatus{Name: m.name, URL: m.url, Alive: m.alive, Jobs: assigned[m.name]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func terminalState(st service.JobState) bool {
	return st == service.JobDone || st == service.JobFailed || st == service.JobCancelled
}

// Submit schedules req on the cluster. Same contract as the single-node
// scheduler: (status, created, error), dedup by content-address against
// in-flight jobs, immediate terminal job on a coordinator-cache hit,
// service.ErrQueueFull past QueueDepth.
//
// The cache probe is local-only (memory + disk): fresh work must not
// pay a fleet-wide round of peer RPCs per submission. A key some worker
// has cached anyway dedups remotely — the worker answers the lane's
// post with an instant done.
func (c *Coordinator) Submit(req service.Request) (JobStatus, bool, error) {
	key, err := req.Key() // validates and canonicalizes
	if err != nil {
		return JobStatus{}, false, err
	}
	_, cached := c.store.GetLocal(key)

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.fenced {
		return JobStatus{}, false, service.ErrShuttingDown
	}
	if prior := c.byKey[key]; prior != nil {
		c.counters.Add("deduped", 1)
		return c.statusLocked(prior), false, nil
	}

	job := &cjob{
		id:      fmt.Sprintf("c%06d", c.nextID+1),
		key:     key,
		req:     req,
		created: time.Now(),
		done:    make(chan struct{}),
	}
	if cached {
		c.nextID++
		c.counters.Add("submitted", 1)
		c.counters.Add("cache_hits", 1)
		c.jlog(c.journal.Submit(job.id, key, req))
		c.jlog(c.journal.Terminal(job.id, service.JobDone, "", ""))
		job.state = service.JobDone
		job.cacheHit = true
		job.finished = job.created
		close(job.done)
		c.jobs[job.id] = job
		c.order = append(c.order, job.id)
		c.terminal++
		c.evictLocked()
		return c.statusLocked(job), true, nil
	}
	if len(c.jobs)-c.terminal >= c.cfg.QueueDepth {
		return JobStatus{}, false, service.ErrQueueFull
	}
	c.nextID++
	c.counters.Add("submitted", 1)
	c.jlog(c.journal.Submit(job.id, key, req))
	job.state = service.JobQueued
	c.jobs[job.id] = job
	c.byKey[key] = job
	c.order = append(c.order, job.id)
	c.evictLocked()
	c.cond.Broadcast()
	c.cfg.Logf("cluster: %s queued: %s key=%.12s", job.id, req.Experiment, key)
	return c.statusLocked(job), true, nil
}

// Job returns the identified job's snapshot.
func (c *Coordinator) Job(id string) (JobStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	job, ok := c.jobs[id]
	if !ok {
		return JobStatus{}, service.ErrUnknownJob
	}
	return c.statusLocked(job), nil
}

// Jobs lists every retained job in submission order.
func (c *Coordinator) Jobs() []JobStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]JobStatus, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.statusLocked(c.jobs[id]))
	}
	return out
}

// JobCounts returns jobs per lifecycle state.
func (c *Coordinator) JobCounts() map[service.JobState]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[service.JobState]int, len(service.States))
	for _, st := range service.States {
		out[st] = 0
	}
	for _, job := range c.jobs {
		out[job.state]++
	}
	return out
}

// Wait blocks until the job is terminal or ctx is done.
func (c *Coordinator) Wait(ctx context.Context, id string) (JobStatus, error) {
	c.mu.Lock()
	job, ok := c.jobs[id]
	c.mu.Unlock()
	if !ok {
		return JobStatus{}, service.ErrUnknownJob
	}
	select {
	case <-job.done:
		return c.Job(id)
	case <-ctx.Done():
		return JobStatus{}, ctx.Err()
	}
}

// Cancel requests cancellation. A job that no lane holds and no worker
// has cancels on the spot. Otherwise the lane driving it (or the next
// lane to attach to it) sends the worker's DELETE, retrying through RPC
// failures, and the job ends cancelled once the worker reports it so —
// a partition during cancel cannot resurrect the job.
func (c *Coordinator) Cancel(id string) (JobStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	job, ok := c.jobs[id]
	if !ok {
		return JobStatus{}, service.ErrUnknownJob
	}
	job.cancel = true
	if !job.held && job.remoteID == "" {
		c.finishLocked(job, service.JobCancelled, "cancelled while queued", "")
	}
	return c.statusLocked(job), nil
}

// statusLocked snapshots a job.
func (c *Coordinator) statusLocked(job *cjob) JobStatus {
	st := JobStatus{
		ID:         job.id,
		State:      job.state,
		Experiment: job.req.Experiment,
		Request:    job.req,
		CacheHit:   job.cacheHit,
		Error:      job.err,
		ErrorKind:  job.errKind,
		Attempts:   job.assigns,
		Created:    job.created,
		CPI:        job.cpi,
		Worker:     job.worker,
	}
	if job.state == service.JobDone {
		st.ResultKey = job.key
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

// finishLocked moves a job to a terminal state exactly once. The
// terminal record hits the journal before the transition takes effect,
// so a crash between the two replays the job as still in flight —
// at-least-once journaling, made exactly-once by content-addressing.
func (c *Coordinator) finishLocked(job *cjob, state service.JobState, errMsg, errKind string) {
	if terminalState(job.state) {
		return
	}
	c.jlog(c.journal.Terminal(job.id, state, errMsg, errKind))
	job.state = state
	job.err = errMsg
	job.errKind = errKind
	job.finished = time.Now()
	delete(c.byKey, job.key) // placement fields stay for post-mortem status

	c.terminal++
	close(job.done)
	switch state {
	case service.JobDone:
		c.counters.Add("completed", 1)
	case service.JobFailed:
		c.counters.Add("failed", 1)
	case service.JobCancelled:
		c.counters.Add("cancelled", 1)
	}
	c.evictLocked()
}

// evictLocked drops the oldest terminal jobs beyond RetainJobs.
func (c *Coordinator) evictLocked() {
	for c.terminal > c.cfg.RetainJobs {
		evicted := false
		for i, id := range c.order {
			job := c.jobs[id]
			if !terminalState(job.state) {
				continue
			}
			delete(c.jobs, id)
			c.order = append(c.order[:i], c.order[i+1:]...)
			c.terminal--
			evicted = true
			break
		}
		if !evicted {
			return
		}
	}
}

// placeLocked records that job lives on worker as remoteID, journaled
// before the table changes.
func (c *Coordinator) placeLocked(job *cjob, worker, remoteID string) {
	c.jlog(c.journal.Assign(job.id, worker, remoteID, job.assigns))
	job.worker, job.remoteID = worker, remoteID
}

// requeueLocked hands a job back to the queue, counting why: its
// placement is journaled away and any idle lane may claim it. A job the
// client has cancelled ends cancelled instead, since no worker holds it
// any more.
func (c *Coordinator) requeueLocked(job *cjob, why string) {
	job.held = false
	if terminalState(job.state) {
		return
	}
	if job.worker != "" {
		c.jlog(c.journal.Unassign(job.id))
		job.worker, job.remoteID = "", ""
	}
	c.counters.Add(why, 1)
	c.cfg.Logf("cluster: %s requeued (%s)", job.id, why)
	if job.cancel {
		c.finishLocked(job, service.JobCancelled, "cancelled", "")
		return
	}
	job.state = service.JobQueued
	c.cond.Broadcast()
}

// observeLocked mirrors a worker-reported status onto the job. A job the
// worker reports done reads as running until its result is durable here.
func observeLocked(job *cjob, st service.JobStatus) {
	switch st.State {
	case service.JobQueued:
		job.state = service.JobQueued
	case service.JobRunning, service.JobDone:
		job.state = service.JobRunning
		if job.started.IsZero() {
			job.started = time.Now()
			if st.Started != nil {
				job.started = *st.Started
			}
		}
	}
}

// run is the probe loop: an immediate first round (readyz and the
// lanes need not wait), then one round per ProbeInterval.
func (c *Coordinator) run() {
	defer c.wg.Done()
	c.probe()
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case <-t.C:
			c.probe()
		}
	}
}

// workerListing is the part of a worker's GET /v1/jobs reply the probe
// reads.
type workerListing struct {
	Jobs []struct {
		ID        string           `json:"id"`
		State     service.JobState `json:"state"`
		ResultKey string           `json:"result_key"`
	} `json:"jobs"`
	Workers int `json:"workers"`
}

// probe is the only per-worker heartbeat: one GET /v1/jobs listing per
// member, all in parallel. That one RPC decides liveness, sizes the
// member's lanes from its reported job concurrency, adopts work the
// worker already holds, and — because a listing at the current epoch
// is the fence's re-registration handshake — re-registers any worker
// that adopted this coordinator's epoch, a restarted one included.
func (c *Coordinator) probe() {
	if c.Fenced() {
		return
	}
	c.mu.Lock()
	targets := make([]*member, 0, len(c.members))
	for _, m := range c.members {
		targets = append(targets, m)
	}
	c.mu.Unlock()

	listings := make([]*workerListing, len(targets))
	var wg sync.WaitGroup
	for i, m := range targets {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
			defer cancel()
			// Retries ride inside ProbeTimeout: a blip doesn't count as a
			// failed round, but a dead worker still fails the round on time.
			var l workerListing
			if c.client.doIdempotent(ctx, m.name, http.MethodGet, m.url+"/v1/jobs", nil, &l) == nil {
				listings[i] = &l
			}
		}(i, m)
	}
	wg.Wait()

	c.mu.Lock()
	defer c.mu.Unlock()
	for i, m := range targets {
		if l := listings[i]; l != nil {
			c.upLocked(m, l)
		} else {
			c.downLocked(m)
		}
	}
	c.probed = true
}

// upLocked applies a successful probe: a member coming up joins, its
// lane count follows the worker's reported concurrency (lanesFor), and
// unplaced jobs the worker already has queued or running are adopted:
// work a previous coordinator posted without journaling the placement
// (a crash between the two, or a fenced-off primary still dispatching)
// is attached to, not run a second time.
func (c *Coordinator) upLocked(m *member, l *workerListing) {
	m.fails = 0
	if !m.alive {
		m.alive, m.down = true, false
		m.ctx, m.stop = context.WithCancel(c.ctx)
		m.lanes = 0
		c.counters.Add("worker_joined", 1)
		c.jlog(c.journal.Member(m.name, true))
		c.cfg.Logf("cluster: worker %s alive", m.name)
	}
	for _, st := range l.Jobs {
		if st.State != service.JobQueued && st.State != service.JobRunning {
			continue
		}
		if job := c.byKey[st.ResultKey]; job != nil && job.worker == "" && !job.held {
			c.placeLocked(job, m.name, st.ID)
			c.counters.Add("adopted", 1)
		}
	}
	m.want = lanesFor(l.Workers)
	if m.lanes > m.want {
		c.cond.Broadcast() // surplus lanes retire at their next claim
	}
	for ; m.lanes < m.want && !c.closed && !c.fenced; m.lanes++ {
		c.wg.Add(1)
		go c.lane(m.ctx, m)
	}
}

// downLocked applies a failed probe. DeadAfter consecutive failures
// declare the member dead — once, whether or not it was ever alive: its
// lanes are stopped (each hands its job back to the queue) and jobs
// placed on it that no lane holds are requeued on the spot.
func (c *Coordinator) downLocked(m *member) {
	m.fails++
	if m.down || m.fails < c.cfg.DeadAfter {
		return
	}
	if m.stop != nil {
		m.stop()
	}
	m.alive, m.down = false, true
	c.counters.Add("worker_dead", 1)
	c.jlog(c.journal.Member(m.name, false))
	c.cfg.Logf("cluster: worker %s dead after %d failed probes", m.name, m.fails)
	for _, job := range c.jobs {
		if job.worker == m.name && !job.held {
			c.requeueLocked(job, "rehashed")
		}
	}
	c.cond.Broadcast()
}

// lane is one dispatch slot on worker m: it claims the next job, drives
// it to a terminal state or back to the queue, and repeats until m dies
// (ctx ends), the lane is surplus, or the coordinator stops.
func (c *Coordinator) lane(ctx context.Context, m *member) {
	defer c.wg.Done()
	for {
		job := c.claim(ctx, m)
		if job == nil {
			return
		}
		c.drive(ctx, m, job)
	}
}

// claim blocks until a job is available for m's lane and takes it: the
// oldest job already placed on m (by the journal or by adoption) first,
// else the oldest unplaced one. nil means the lane should exit.
func (c *Coordinator) claim(ctx context.Context, m *member) *cjob {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.closed || c.fenced || ctx.Err() != nil {
			return nil
		}
		if m.lanes > m.want {
			m.lanes--
			return nil
		}
		var next *cjob
		for _, id := range c.order {
			job := c.jobs[id]
			if job.held || terminalState(job.state) {
				continue
			}
			if job.worker == m.name {
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
		c.cond.Wait()
	}
}

// drive takes one claimed job through its life on m's worker: post it
// (or attach to its recorded placement), long-poll its status, send the
// DELETE if the client cancels, and on done make the result durable
// here. Other outcomes hand the job back to the queue, or — when the
// coordinator stops — leave it to the journal.
func (c *Coordinator) drive(ctx context.Context, m *member, job *cjob) {
	c.mu.Lock()
	rid := job.remoteID
	c.mu.Unlock()
	var st service.JobStatus // zero State: attached, nothing observed yet
	if rid == "" {
		var ok bool
		if st, ok = c.post(ctx, m, job); !ok {
			return
		}
		rid = st.ID
	}
	jobURL := m.url + "/v1/jobs/" + rid
	pollURL := jobURL + "?wait=" + c.cfg.PollInterval.String()
	cancelSent := false
	for {
		var err error
		switch st.State {
		case service.JobDone:
			if err = c.complete(ctx, m, job, st); err == nil {
				return
			}
		case service.JobFailed:
			c.mu.Lock()
			c.finishLocked(job, service.JobFailed, st.Error, st.ErrorKind)
			c.mu.Unlock()
			return
		case service.JobCancelled:
			c.mu.Lock()
			if job.cancel {
				c.finishLocked(job, service.JobCancelled, "cancelled", "")
			} else {
				// Cancelled out of band (a DELETE straight to the worker):
				// the client still wants the result.
				c.requeueLocked(job, "requeued_cancelled")
			}
			c.mu.Unlock()
			return
		default: // queued, running, or not yet observed
			c.mu.Lock()
			observeLocked(job, st)
			sendCancel := job.cancel && !cancelSent
			c.mu.Unlock()
			if sendCancel {
				err = c.client.do(ctx, m.name, http.MethodDelete, jobURL, nil, &st)
				cancelSent = err == nil
			} else {
				pctx, cancel := context.WithTimeout(ctx, c.cfg.PollInterval+c.cfg.RPCTimeout)
				err = c.client.do(pctx, m.name, http.MethodGet, pollURL, nil, &st)
				cancel()
			}
		}
		if err != nil && !c.retry(ctx, m, job, err) {
			return
		}
	}
}

// post sends a claimed job to m's worker and records the placement. A
// job cancelled or out of assignments ends here; on an RPC failure it
// goes back to the queue and the lane pauses, so a failing worker cannot
// spin it.
func (c *Coordinator) post(ctx context.Context, m *member, job *cjob) (service.JobStatus, bool) {
	var st service.JobStatus
	c.mu.Lock()
	switch {
	case job.cancel:
		c.finishLocked(job, service.JobCancelled, "cancelled while queued", "")
	case job.assigns >= c.cfg.MaxAssigns:
		c.finishLocked(job, service.JobFailed,
			fmt.Sprintf("exceeded %d worker assignments", c.cfg.MaxAssigns), "cluster")
	}
	ended := terminalState(job.state)
	c.mu.Unlock()
	if ended {
		return st, false
	}

	err := c.client.do(ctx, m.name, http.MethodPost, m.url+"/v1/jobs", job.req, &st)
	c.mu.Lock()
	if err != nil {
		switch {
		case ctx.Err() != nil: // worker declared dead or coordinator stopping
		case StatusCode(err) == http.StatusTooManyRequests:
			c.counters.Add("dispatch_backpressure", 1)
		default:
			c.counters.Add("rpc_errors", 1)
			c.cfg.Logf("cluster: dispatch %s to %s: %v", job.id, m.name, err)
		}
		job.held = false
		c.cond.Broadcast()
		c.mu.Unlock()
		c.pause(ctx)
		return st, false
	}
	job.assigns++
	c.placeLocked(job, m.name, st.ID)
	c.counters.Add("dispatched", 1)
	c.mu.Unlock()
	c.cfg.Logf("cluster: %s -> %s as %s", job.id, m.name, st.ID)
	return st, true
}

// retry decides whether a lane keeps its job after a failed RPC. A
// stopping coordinator leaves the job to the journal; a dead worker or a
// 404 (the worker lost the job, or the result) hands it back to the
// queue; anything else waits one PollInterval and tries again — the
// probe, not one failed call, decides that a worker is gone.
func (c *Coordinator) retry(ctx context.Context, m *member, job *cjob, err error) bool {
	keep := false
	c.mu.Lock()
	switch {
	case c.closed || c.fenced:
	case ctx.Err() != nil:
		c.requeueLocked(job, "rehashed")
	case StatusCode(err) == http.StatusNotFound:
		c.requeueLocked(job, "requeued_lost")
	default:
		c.counters.Add("rpc_errors", 1)
		keep = true
	}
	c.mu.Unlock()
	if keep {
		c.cfg.Logf("cluster: %s on %s: %v", job.id, m.name, err)
		c.pause(ctx)
	}
	return keep
}

// pause waits one PollInterval, or until ctx ends.
func (c *Coordinator) pause(ctx context.Context) {
	t := time.NewTimer(c.cfg.PollInterval)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// complete is the durability handshake for a job m's worker reports
// done: the result envelope is copied into the coordinator's store, and
// only then is the terminal record journaled (done ⇒ the result is
// durable here, so a worker dying right after finishing costs a rerun,
// never a done-but-unfetchable job). The envelope is then replicated.
func (c *Coordinator) complete(ctx context.Context, m *member, job *cjob, st service.JobStatus) error {
	env, err := c.client.getBytes(ctx, m.name, m.url+"/v1/store/"+job.key)
	if err != nil {
		return err
	}
	if env == nil {
		return &statusError{code: http.StatusNotFound, body: "result envelope missing on " + m.name}
	}
	if err := c.store.PutEnvelope(job.key, env); err != nil {
		return &statusError{code: http.StatusNotFound, body: err.Error()}
	}
	c.mu.Lock()
	observeLocked(job, st)
	job.cpi = st.CPI
	c.finishLocked(job, service.JobDone, "", "")
	c.mu.Unlock()
	c.replicate(ctx, job.key, m.name, env)
	return nil
}

// replicate pushes a freshly landed result envelope to the key's ring
// owner and successor (RF=2 across the worker fleet, on top of the
// coordinator's own copy), skipping the shard that completed it — that
// one already has the result on disk. Losing any single node after
// this point loses no result: the peer-fetch path falls back to the
// successor when the owner is gone. Failures are counted, not retried;
// the coordinator's copy already satisfies the done ⇒ durable
// handshake, and the next peer fetch self-heals the replica.
func (c *Coordinator) replicate(ctx context.Context, key, completer string, env []byte) {
	c.mu.Lock()
	urls := c.liveURLsLocked()
	c.mu.Unlock()
	for _, name := range c.ring.Owners(key, 2) {
		if name == completer || urls[name] == "" {
			continue
		}
		if err := c.client.putBytes(ctx, name, urls[name]+"/v1/store/"+key, env); err != nil {
			c.counters.Add("replica_errors", 1)
			c.cfg.Logf("cluster: replicate %.12s to %s: %v", key, name, err)
			continue
		}
		c.counters.Add("replicated", 1)
	}
}

// liveURLsLocked maps live member name → base URL.
func (c *Coordinator) liveURLsLocked() map[string]string {
	out := make(map[string]string, len(c.members))
	for _, m := range c.members {
		if m.alive {
			out[m.name] = m.url
		}
	}
	return out
}

// fetchEnvelope is the coordinator store's peer tier, for results that
// have left its own tiers: candidates are the key's ring owner and
// successor (the RF=2 replica holders), then the rest of the live
// fleet. First hit wins; all-404 is a clean miss; a miss with transport
// errors reports the first error so the store counts it.
func (c *Coordinator) fetchEnvelope(ctx context.Context, key string) ([]byte, error) {
	c.mu.Lock()
	urls := c.liveURLsLocked()
	c.mu.Unlock()
	var cands []string
	seen := make(map[string]bool)
	add := func(name string) {
		if urls[name] != "" && !seen[name] {
			seen[name] = true
			cands = append(cands, name)
		}
	}
	for _, owner := range c.ring.Owners(key, 2) {
		add(owner)
	}
	for _, name := range c.ring.Nodes() { // sorted
		add(name)
	}

	var firstErr error
	for _, name := range cands {
		b, err := c.client.getBytesIdempotent(ctx, name, urls[name]+"/v1/store/"+key)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if b != nil {
			return b, nil
		}
	}
	return nil, firstErr
}
