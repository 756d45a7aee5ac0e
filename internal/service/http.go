package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"acb/internal/expo"
	"acb/internal/ooo"
)

// Server is the stdlib-only HTTP front end over a Scheduler.
//
// API (see docs/SERVICE.md):
//
//	POST   /v1/jobs          submit a Request; 201 new, 200 dedup/cache hit, 429 queue full, 413 body too large
//	GET    /v1/jobs          list jobs in submission order, plus the job concurrency ("workers")
//	GET    /v1/jobs/{id}     one job's status (?wait=D long-polls until the job is terminal, at most MaxWait)
//	DELETE /v1/jobs/{id}     cancel a queued or running job
//	GET    /v1/results/{key} stored table (?format=json|csv|ascii, default json)
//	GET    /v1/store/{key}   raw stored-result envelope from the local tiers (peer-fetch wire format)
//	GET    /v1/metrics       Prometheus text metrics
//	GET    /v1/healthz       liveness
//	GET    /v1/readyz        readiness (503 + Retry-After during journal replay and drain)
type Server struct {
	sched       *Scheduler
	node        string
	readyChecks []func() (bool, string)
}

// NewServer returns a server over sched.
func NewServer(sched *Scheduler) *Server { return &Server{sched: sched} }

// AddReadyCheck registers an extra readiness gate consulted by
// /v1/readyz after the scheduler's own (e.g. the cluster epoch fence:
// a worker that adopted a new coordinator epoch is not ready until the
// new coordinator has reconciled it). Call before Handler is serving.
func (srv *Server) AddReadyCheck(check func() (ok bool, reason string)) {
	srv.readyChecks = append(srv.readyChecks, check)
}

// Scheduler returns the underlying scheduler.
func (srv *Server) Scheduler() *Scheduler { return srv.sched }

// SetNode sets this instance's node identity. When set, every series on
// /v1/metrics carries a node label, so two instances' expositions are
// never indistinguishable — the precondition for cluster-wide metric
// aggregation, and just as necessary when two single-node daemons share
// one Prometheus.
func (srv *Server) SetNode(name string) { srv.node = name }

// Node returns the instance identity set by SetNode ("" when unset).
func (srv *Server) Node() string { return srv.node }

// Handler builds the route table.
func (srv *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", srv.handleHealthz)
	mux.HandleFunc("GET /v1/readyz", srv.handleReadyz)
	mux.HandleFunc("POST /v1/jobs", srv.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", srv.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", srv.handleGetJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", srv.handleCancelJob)
	mux.HandleFunc("GET /v1/results/{key}", srv.handleGetResult)
	mux.HandleFunc("GET /v1/store/{key}", srv.handleGetEnvelope)
	mux.HandleFunc("PUT /v1/store/{key}", srv.handlePutEnvelope)
	mux.HandleFunc("GET /v1/metrics", srv.handleMetrics)
	return mux
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, apiError{Error: err.Error()})
}

func (srv *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the load-balancer signal, distinct from liveness: the
// process is up (healthz 200) but must not receive traffic while the
// journal is replaying, a drain is in progress, or any registered
// readiness gate (the cluster epoch fence) objects.
func (srv *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	ok, reason := srv.sched.Ready()
	if ok {
		for _, check := range srv.readyChecks {
			if ok, reason = check(); !ok {
				break
			}
		}
	}
	if !ok {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "not ready", "reason": reason})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// submitResponse is the POST /v1/jobs reply: the job snapshot plus
// whether this submission created the job or coalesced onto prior work.
type submitResponse struct {
	JobStatus
	Deduped bool `json:"deduped"`
}

// MaxRequestBytes bounds a POST /v1/jobs body (one Request) on workers,
// single nodes and coordinators alike. Real requests are well under 1 KiB.
const MaxRequestBytes = 64 << 10

// MaxWait caps the ?wait= long-poll window of GET /v1/jobs/{id}.
const MaxWait = time.Minute

// DecodeJSON decodes r's body into v, rejecting unknown fields and any
// body over limit bytes. On failure it returns the status to answer
// with: 413 for an oversized body, 400 for anything else malformed.
func DecodeJSON(w http.ResponseWriter, r *http.Request, limit int64, v interface{}) (int, error) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		return 0, nil
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge, fmt.Errorf("body exceeds %d bytes", limit)
	}
	return http.StatusBadRequest, err
}

func (srv *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	if code, err := DecodeJSON(w, r, MaxRequestBytes, &req); err != nil {
		writeError(w, code, fmt.Errorf("service: bad request body: %w", err))
		return
	}
	st, created, err := srv.sched.Submit(req)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrShuttingDown):
		// Draining: this instance never comes back, but a replacement
		// (or journal-recovered restart) may — tell clients when to retry.
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	code := http.StatusOK // dedup or cache hit: nothing new scheduled
	if created && !st.CacheHit {
		code = http.StatusCreated
	}
	writeJSON(w, code, submitResponse{JobStatus: st, Deduped: !created})
}

// handleListJobs lists the job table. "workers" reports the job
// concurrency: a cluster coordinator sizes its dispatch lanes for this
// node from it.
func (srv *Server) handleListJobs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]interface{}{"jobs": srv.sched.Jobs(), "workers": srv.sched.Workers()})
}

// handleGetJob serves one job's status. With ?wait=D (a Go duration,
// capped at MaxWait) it first blocks until the job is terminal or D has
// passed, then answers with whatever state the job is in: a client
// learns of a completion at once without polling on a fixed grid.
func (srv *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if q := r.URL.Query().Get("wait"); q != "" {
		d, err := time.ParseDuration(q)
		if err != nil || d < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad wait %q (want a duration like 250ms)", q))
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), min(d, MaxWait))
		_, err = srv.sched.Wait(ctx, id)
		cancel()
		if errors.Is(err, ErrUnknownJob) {
			writeError(w, http.StatusNotFound, err)
			return
		}
	}
	st, err := srv.sched.Job(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (srv *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	st, err := srv.sched.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (srv *Server) handleGetResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	tab, ok := srv.sched.Store().Get(key)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: no result for key %q", key))
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		// json.Marshal(tab), not the indenting encoder: the bytes must be
		// identical to what any other client of Table.MarshalJSON sees.
		b, err := json.Marshal(tab)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(b)
	case "csv":
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		fmt.Fprint(w, tab.CSV())
	case "ascii":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, tab.String())
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("service: unknown format %q (want json, csv or ascii)", format))
	}
}

// handleGetEnvelope serves the raw stored-result envelope — the bytes
// the disk tier holds (or their in-memory reconstruction) — from the
// local tiers only. This is the peer-fetch wire format: a shard that
// misses locally asks the owning shard here, and because the response is
// the owner's envelope verbatim, a peer-filled replica file is
// byte-identical to the original. Never consults this store's own peer
// tier, so two shards cannot chase each other for a key neither owns.
func (srv *Server) handleGetEnvelope(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	b, ok := srv.sched.Store().Envelope(key)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: no stored envelope for key %q", key))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

// handlePutEnvelope accepts a replicated stored-result envelope (the
// cluster coordinator's RF=2 push after a job completes elsewhere). The
// envelope is validated against its key and written through verbatim,
// so the replica file is byte-identical to the original; replaying the
// same PUT is a no-op by content-addressing.
func (srv *Server) handlePutEnvelope(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	b, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: reading envelope: %w", err))
		return
	}
	if err := srv.sched.Store().PutEnvelope(key, b); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "stored", "key": key})
}

// handleMetrics emits Prometheus text exposition (version 0.0.4).
// Monotonic series follow the naming convention: every `*_total` name is
// declared `# TYPE ... counter` (tested by TestMetricsExposition).
func (srv *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var b strings.Builder
	gauge := func(name, help string, v interface{}) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	counter := func(name, help string, v interface{}) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %v\n", name, help, name, name, v)
	}

	fmt.Fprintf(&b, "# HELP acbd_jobs Jobs by lifecycle state.\n# TYPE acbd_jobs gauge\n")
	counts := srv.sched.JobCounts()
	for _, st := range States {
		fmt.Fprintf(&b, "acbd_jobs{state=%q} %d\n", st, counts[st])
	}
	gauge("acbd_queue_depth", "Jobs waiting in the bounded queue.", srv.sched.QueueDepth())

	fmt.Fprintf(&b, "# HELP acbd_events_total Monotonic scheduler events.\n# TYPE acbd_events_total counter\n")
	c := srv.sched.Counters()
	for _, name := range c.Names() {
		fmt.Fprintf(&b, "acbd_events_total{event=%q} %d\n", name, c.Get(name))
	}

	// Retries get a dedicated counter (alerting keys on it) in addition
	// to the acbd_events_total{event="retried"} series above.
	counter("acbd_job_retries_total", "Transiently failed runs put back on the queue with backoff.",
		c.Get("retried"))
	// Same for journal replays: nonzero means this node recovered from a
	// crash, which operators alert on. HELP must stay identical to the
	// coordinator's emission of the same family or expo.Merge rejects the
	// cluster-wide scrape.
	counter("acbd_journal_replays_total", "Journal replays performed at startup (nonzero after a crash-restart or failover recovery).",
		c.Get("journal_replays"))

	hits, misses := srv.sched.Store().Stats()
	fmt.Fprintf(&b, "# HELP acbd_store_lookups_total Result-store lookups.\n# TYPE acbd_store_lookups_total counter\n")
	fmt.Fprintf(&b, "acbd_store_lookups_total{outcome=\"hit\"} %d\n", hits)
	fmt.Fprintf(&b, "acbd_store_lookups_total{outcome=\"miss\"} %d\n", misses)
	gauge("acbd_store_entries", "Tables resident in the memory tier.", srv.sched.Store().Len())
	counter("acbd_store_disk_errors_total", "Disk-tier failures: failed persists plus unreadable or corrupt result files.",
		srv.sched.Store().DiskErrors())
	peerHits, peerErrs := srv.sched.Store().PeerStats()
	fmt.Fprintf(&b, "# HELP acbd_store_peer_fetches_total Peer-tier fetches by outcome (errors count transport failures and corrupt envelopes).\n")
	fmt.Fprintf(&b, "# TYPE acbd_store_peer_fetches_total counter\n")
	fmt.Fprintf(&b, "acbd_store_peer_fetches_total{outcome=\"hit\"} %d\n", peerHits)
	fmt.Fprintf(&b, "acbd_store_peer_fetches_total{outcome=\"error\"} %d\n", peerErrs)

	rs := srv.sched.RunnerStats()
	counter("acbd_simulations_total", "Simulations dispatched onto the worker pool.", rs.Jobs())
	counter("acbd_sim_seconds_total", "Cumulative single-threaded simulation seconds.", rs.Sim().Seconds())
	counter("acbd_wall_seconds_total", "Cumulative pool wall-clock seconds.", rs.Wall().Seconds())
	// Emitted only once a measurement exists: "no runs yet" is the
	// metric's absence, not a fake 0x.
	if sp, ok := rs.Speedup(); ok {
		gauge("acbd_effective_speedup", "Cumulative sim/wall ratio of the worker pool.", fmt.Sprintf("%.4f", sp))
	}

	// Per-job wall-duration histogram (Prometheus histogram exposition:
	// cumulative buckets, +Inf, sum, count).
	bounds, cumulative, sum, count := srv.sched.Durations().Snapshot()
	fmt.Fprintf(&b, "# HELP acbd_job_duration_seconds Wall-clock duration of executed jobs.\n")
	fmt.Fprintf(&b, "# TYPE acbd_job_duration_seconds histogram\n")
	for i, bound := range bounds {
		fmt.Fprintf(&b, "acbd_job_duration_seconds_bucket{le=%q} %d\n",
			strconv.FormatFloat(bound, 'g', -1, 64), cumulative[i])
	}
	fmt.Fprintf(&b, "acbd_job_duration_seconds_bucket{le=\"+Inf\"} %d\n", count)
	fmt.Fprintf(&b, "acbd_job_duration_seconds_sum %g\n", sum)
	fmt.Fprintf(&b, "acbd_job_duration_seconds_count %d\n", count)

	// CPI-stack totals across every simulated job, per scheme and bucket.
	cpi := srv.sched.CPIStats()
	snap := cpi.Snapshot()
	fmt.Fprintf(&b, "# HELP acbd_cpi_cycles_total Simulated cycles attributed per CPI-stack bucket.\n")
	fmt.Fprintf(&b, "# TYPE acbd_cpi_cycles_total counter\n")
	for _, scheme := range cpi.Schemes() {
		t := snap[scheme]
		for i, bucket := range ooo.CPIBucketNames {
			fmt.Fprintf(&b, "acbd_cpi_cycles_total{scheme=%q,bucket=%q} %d\n",
				scheme, bucket, t.Buckets[i])
		}
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if srv.node != "" {
		// Stamp the instance identity onto every series, so a scraper (or
		// the cluster coordinator's aggregator) can never merge two nodes'
		// series into one. Emission stays label-free above; the relabel
		// pass guarantees uniform coverage, including histogram samples.
		families, err := expo.Parse(b.String())
		if err == nil {
			expo.SetLabel(families, "node", srv.node)
			_ = expo.Write(w, families)
			return
		}
		// An unparseable exposition is a bug; serve it raw rather than 500
		// so operators can still see the malformed text.
	}
	fmt.Fprint(w, b.String())
}
