package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

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

	// QueueDepth bounds non-terminal cluster jobs (the coordinator runs
	// none itself); submissions beyond it fail fast with
	// service.ErrQueueFull. Default 4096.
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

	// MaxAssigns is the coordinator's attempt budget: how many times one
	// job may be posted to a worker (the first post plus re-posts after a
	// worker death, a lost job or an out-of-band cancel) before a return to
	// the queue fails it with error kind transient. Default 6.
	MaxAssigns int

	// Journal is the job table's write-ahead log (nil = not journaled).
	// Every placement, completion and membership transition is appended
	// before the in-memory job table mutates.
	Journal *service.Journal
	// Replay is the job set recovered from the journal at open, restored
	// into the table before the lanes start: terminal jobs come back
	// queryable, placed jobs are re-attached by their worker's lanes
	// rather than re-run, and unplaced jobs re-enter the queue.
	Replay []service.ReplayJob
	// Epoch is the coordinator's fencing epoch, stamped on every RPC.
	// Workers reject RPCs below the highest epoch they have seen, which
	// is what keeps a stale primary harmless after a failover (0 = not
	// clustered for fencing; nothing is stamped).
	Epoch uint64
	// Promoted marks a coordinator born from a standby takeover (counts
	// acbd_failovers_total).
	Promoted bool

	// Faults wires the rpc / rpc.<node> partition points and the
	// journal's journal.append point (nil = none).
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
// and url are immutable; the rest is guarded by the table's lock.
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

// JobStatus is a cluster job snapshot: the single-node status type, with
// Worker set to the member the job is (or was) placed on. The alias
// remains because the benchmark (bench/fleet.go) names cluster.JobStatus.
type JobStatus = service.JobStatus

// Coordinator is a coordinator's role: its job table (embedded, so the
// coordinator serves the job API) and fleet liveness. Work moves by
// pull: each live worker gets a set of lanes — coordinator goroutines
// that each claim the oldest job for that worker and drive it there
// from post to durable result. One probe loop keeps liveness and sizes
// the lanes.
type Coordinator struct {
	*service.Table
	cfg    Config
	client *Client
	store  *service.Store
	epoch  uint64
	// ring is the static fleet's ring, the one workers peer-fetch by: it
	// picks replication targets and the results proxy's fetch order.
	ring *Ring

	counters *stats.Counters

	// Guarded by the table's lock, so a claim, a member's death and its
	// requeues are atomic.
	fenced  bool // a higher-epoch coordinator exists; stand down
	closed  bool
	probed  bool // first probe round done (readyz gate)
	members map[string]*member

	ctx     context.Context    // parent of every member's ctx
	stopAll context.CancelFunc // on shutdown or fencing
	stopCh  chan struct{}
	wg      sync.WaitGroup
}

// New builds a Coordinator over the given result store (the
// coordinator's own cache tier for the results proxy; it may be
// memory-only). Replayed jobs are restored: terminal ones stay
// queryable, placed ones are re-attached by their worker's lanes rather
// than re-run. Call Start to begin probing and dispatching.
func New(cfg Config, store *service.Store) (*Coordinator, error) {
	cfg.fillDefaults()
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("cluster: coordinator needs at least one worker")
	}
	c := &Coordinator{
		cfg:      cfg,
		client:   NewClient(cfg.RPCTimeout, cfg.Faults),
		store:    store,
		epoch:    cfg.Epoch,
		counters: stats.NewCounters(),
		members:  make(map[string]*member),
		stopCh:   make(chan struct{}),
	}
	c.Table = service.NewTable(service.Policy{
		IDPrefix:    "c",
		Capacity:    cfg.QueueDepth,
		Retain:      cfg.RetainJobs,
		MaxAttempts: cfg.MaxAssigns,
		// Local tiers only: fresh work must not pay a fleet-wide round of
		// peer RPCs per submission. A key some worker has cached anyway
		// dedups there — the worker answers the lane's post with a done.
		Lookup: func(key string) bool { _, ok := store.GetLocal(key); return ok },
	}, cfg.Journal, c.counters, cfg.Logf)
	cfg.Journal.SetFaults(cfg.Faults)
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
	replay := append([]service.ReplayJob(nil), cfg.Replay...)
	for i := range replay {
		if c.members[replay[i].Worker] == nil { // placed on a worker no longer in the fleet
			replay[i].Worker, replay[i].RemoteID = "", ""
		}
	}
	c.Restore(replay)
	return c, nil
}

// onStaleEpoch is the client's fencing hook: some worker has seen a
// higher coordinator epoch, meaning a standby promoted past us. Stop
// touching the fleet — every mutation would bounce with 409 anyway —
// and report not-ready so clients move to the new primary.
func (c *Coordinator) onStaleEpoch(higher uint64) {
	c.Close() // refuse submissions before the fence is visible
	c.Lock()
	defer c.Unlock()
	if c.fenced {
		return
	}
	c.fenced = true
	c.stopAll()
	c.Broadcast()
	c.counters.Add("fenced", 1)
	c.cfg.Logf("cluster: fenced: epoch %d superseded by %d; standing down", c.epoch, higher)
}

// Epoch returns the coordinator's fencing epoch (0 = unfenced setup).
func (c *Coordinator) Epoch() uint64 { return c.epoch }

// Fenced reports whether a higher-epoch coordinator has taken over.
func (c *Coordinator) Fenced() bool {
	c.Lock()
	defer c.Unlock()
	return c.fenced
}

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
	c.Close()
	c.Lock()
	if c.closed {
		c.Unlock()
		return nil
	}
	c.closed = true
	close(c.stopCh)
	c.stopAll()
	c.Broadcast()
	c.Unlock()

	doneCh := make(chan struct{})
	go func() { c.wg.Wait(); close(doneCh) }()
	select {
	case <-doneCh:
		// No terminal records are written here: for the journal, shutdown
		// is a crash, and replay + lane re-attachment is the recovery path
		// either way.
		return c.Journal().Close()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Store returns the coordinator's result store.
func (c *Coordinator) Store() *service.Store { return c.store }

// Ready reports whether the coordinator can accept work: the first
// probe round has completed and at least one worker is alive.
func (c *Coordinator) Ready() (bool, string) {
	c.Lock()
	defer c.Unlock()
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
	c.Lock()
	defer c.Unlock()
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
	c.Lock()
	defer c.Unlock()
	assigned := c.PlacedLocked()
	out := make([]MemberStatus, 0, len(c.members))
	for _, m := range c.members {
		out = append(out, MemberStatus{Name: m.name, URL: m.url, Alive: m.alive, Jobs: assigned[m.name]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
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
	c.Lock()
	targets := make([]*member, 0, len(c.members))
	for _, m := range c.members {
		targets = append(targets, m)
	}
	c.Unlock()

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
			if c.client.retry(ctx, func() error {
				return c.client.call(ctx, m.name, http.MethodGet, m.url+"/v1/jobs", nil, &l)
			}) == nil {
				listings[i] = &l
			}
		}(i, m)
	}
	wg.Wait()

	c.Lock()
	defer c.Unlock()
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
		c.JournalMember(m.name, true)
		c.cfg.Logf("cluster: worker %s alive", m.name)
	}
	for _, st := range l.Jobs {
		if (st.State == service.JobQueued || st.State == service.JobRunning) &&
			c.AdoptLocked(st.ResultKey, m.name, st.ID) {
			c.counters.Add("adopted", 1)
		}
	}
	m.want = lanesFor(l.Workers)
	if m.lanes > m.want {
		c.Broadcast() // surplus lanes retire at their next claim
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
	c.JournalMember(m.name, false)
	c.cfg.Logf("cluster: worker %s dead after %d failed probes", m.name, m.fails)
	c.RequeueWorkerLocked(m.name, "rehashed")
	c.Broadcast()
}

// lane is one dispatch slot on worker m: it claims the next job for m
// — one already placed there first — drives it to a terminal state or
// back to the queue, and repeats until m dies (ctx ends), the lane is
// surplus, or the coordinator stops.
func (c *Coordinator) lane(ctx context.Context, m *member) {
	defer c.wg.Done()
	quit := func() bool { // under the table's lock; shutdown and fencing end ctx
		if ctx.Err() != nil {
			return true
		}
		if m.lanes > m.want {
			m.lanes--
			return true
		}
		return false
	}
	for {
		job := c.Claim(m.name, quit)
		if job == nil {
			return
		}
		c.drive(ctx, m, job)
	}
}

// drive takes one claimed job through its life on m's worker: post it
// (or attach to its recorded placement), long-poll its status, send the
// DELETE if the client cancels, and on done make the result durable
// here. Other outcomes hand the job back to the queue, or — when the
// coordinator stops — leave it to the journal.
func (c *Coordinator) drive(ctx context.Context, m *member, job *service.Job) {
	c.Lock()
	_, rid := job.Placement()
	c.Unlock()
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
			c.Lock()
			c.FinishLocked(job, service.JobFailed, st.Error, st.ErrorKind, nil)
			c.Unlock()
			return
		case service.JobCancelled:
			// Cancelled here, or out of band (a DELETE straight to the
			// worker), in which case the client still wants the result.
			c.Lock()
			c.RequeueLocked(job, "requeued_cancelled", "")
			c.Unlock()
			return
		default: // queued, running, or not yet observed
			c.Lock()
			c.ObserveLocked(job, st)
			sendCancel := job.CancelRequested() && !cancelSent
			c.Unlock()
			if sendCancel {
				err = c.client.call(ctx, m.name, http.MethodDelete, jobURL, nil, &st)
				cancelSent = err == nil
			} else {
				pctx, cancel := context.WithTimeout(ctx, c.cfg.PollInterval+c.cfg.RPCTimeout)
				err = c.client.call(pctx, m.name, http.MethodGet, pollURL, nil, &st)
				cancel()
			}
		}
		if err != nil && !c.retry(ctx, m, job, err) {
			return
		}
	}
}

// post sends a claimed job to m's worker and records the placement. A
// job cancelled meanwhile ends here; on an RPC failure it goes back to
// the queue and the lane pauses, so a failing worker cannot spin it.
func (c *Coordinator) post(ctx context.Context, m *member, job *service.Job) (service.JobStatus, bool) {
	var st service.JobStatus
	c.Lock()
	cancelled := job.CancelRequested()
	if cancelled {
		c.FinishLocked(job, service.JobCancelled, "cancelled while queued", "", nil)
	}
	c.Unlock()
	if cancelled {
		return st, false
	}

	if err := c.client.call(ctx, m.name, http.MethodPost, m.url+"/v1/jobs", job.Request, &st); err != nil {
		switch {
		case ctx.Err() != nil: // worker declared dead or coordinator stopping
		case StatusCode(err) == http.StatusTooManyRequests:
			c.counters.Add("dispatch_backpressure", 1)
		default:
			c.counters.Add("rpc_errors", 1)
			c.cfg.Logf("cluster: dispatch %s to %s: %v", job.ID, m.name, err)
		}
		c.Release(job)
		c.pause(ctx)
		return st, false
	}
	c.Lock()
	c.StartLocked(job, m.name, st.ID, nil)
	c.Unlock()
	c.counters.Add("dispatched", 1)
	c.cfg.Logf("cluster: %s -> %s as %s", job.ID, m.name, st.ID)
	return st, true
}

// retry decides whether a lane keeps its job after a failed RPC. A
// stopping coordinator leaves the job to the journal; a dead worker or a
// 404 (the worker lost the job, or the result) hands it back to the
// queue; anything else waits one PollInterval and tries again — the
// probe, not one failed call, decides that a worker is gone.
func (c *Coordinator) retry(ctx context.Context, m *member, job *service.Job, err error) bool {
	keep := false
	c.Lock()
	switch {
	case c.closed || c.fenced:
	case ctx.Err() != nil:
		c.RequeueLocked(job, "rehashed", "")
	case StatusCode(err) == http.StatusNotFound:
		c.RequeueLocked(job, "requeued_lost", "")
	default:
		c.counters.Add("rpc_errors", 1)
		keep = true
	}
	c.Unlock()
	if keep {
		c.cfg.Logf("cluster: %s on %s: %v", job.ID, m.name, err)
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
// never a done-but-unfetchable job). The envelope is then replicated. A
// 404, or an envelope that fails validation, is a lost result: retry
// hands the job back to the queue.
func (c *Coordinator) complete(ctx context.Context, m *member, job *service.Job, st service.JobStatus) error {
	env, err := c.client.send(ctx, m.name, http.MethodGet, m.url+"/v1/store/"+job.Key, nil, maxRaw)
	if err != nil {
		return err
	}
	if err := c.store.PutEnvelope(job.Key, env); err != nil {
		return &statusError{code: http.StatusNotFound, body: err.Error()}
	}
	c.Lock()
	c.ObserveLocked(job, st)
	c.FinishLocked(job, service.JobDone, "", "", st.CPI)
	c.Unlock()
	c.replicate(ctx, job.Key, m.name, env)
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
	c.Lock()
	urls := c.liveURLsLocked()
	c.Unlock()
	for _, name := range c.ring.Owners(key, 2) {
		if name == completer || urls[name] == "" {
			continue
		}
		if _, err := c.client.send(ctx, name, http.MethodPut, urls[name]+"/v1/store/"+key, env, maxJSON); err != nil {
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
// have left its own tiers: it walks (fetchFirst) the key's ring owner
// and successor (the RF=2 replica holders), then the rest of the live
// fleet in name order, each live member once.
func (c *Coordinator) fetchEnvelope(ctx context.Context, key string) ([]byte, error) {
	c.Lock()
	urls := c.liveURLsLocked()
	c.Unlock()
	var cands []Member
	for _, name := range append(c.ring.Owners(key, 2), c.ring.Nodes()...) {
		if url := urls[name]; url != "" {
			cands = append(cands, Member{Name: name, URL: url})
			delete(urls, name)
		}
	}
	return fetchFirst(ctx, c.client, key, cands)
}
