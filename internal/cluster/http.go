package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"acb/internal/expo"
	"acb/internal/service"
)

// Server is the coordinator's HTTP front end: the job API every acbd
// role serves (service.NewJobMux) over the Coordinator — so every
// client of a single node (acbd submit, curl scripts, the CI smoke
// jobs) points at a coordinator unchanged — plus the coordinator-only
// routes:
//
//	POST /v1/jobs:batch       submit many requests in one call
//	GET  /v1/results:stream   NDJSON job statuses as they finish
//	GET  /v1/cluster          fleet membership and liveness
//	GET  /v1/journal:stream   the journal, tailed by a standby
//	GET  /v1/metrics          every node's series merged, node-labeled
type Server struct {
	coord *Coordinator
}

// NewServer returns a server over coord.
func NewServer(coord *Coordinator) *Server { return &Server{coord: coord} }

// Handler builds the route table.
func (srv *Server) Handler() http.Handler {
	mux := service.NewJobMux(srv.coord)
	mux.HandleFunc("POST /v1/jobs:batch", srv.handleSubmitBatch)
	mux.HandleFunc("GET /v1/results:stream", srv.handleStream)
	mux.HandleFunc("GET /v1/cluster", srv.handleCluster)
	mux.HandleFunc("GET /v1/journal:stream", srv.handleJournalStream)
	mux.HandleFunc("GET /v1/metrics", srv.handleMetrics)
	return mux
}

// batchRequest / batchResponse are the bulk submission shapes: one
// round-trip for a whole sweep. Items are independent — a rejected
// request (bad experiment, queue full) reports its error in place
// without failing the rest.
type batchRequest struct {
	Jobs []service.Request `json:"jobs"`
}

type batchItem struct {
	JobStatus
	Deduped bool   `json:"deduped,omitempty"`
	Error   string `json:"error,omitempty"`
}

type batchResponse struct {
	Jobs []batchItem `json:"jobs"`
}

// A batch holds at most maxBatch requests, and its body at most
// maxBatchBytes: the byte cap is enforced while reading, so an oversized
// batch is refused (413) before it is held in memory.
const (
	maxBatch      = 1024
	maxBatchBytes = maxBatch * 4 << 10
)

func (srv *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if code, err := service.DecodeJSON(w, r, maxBatchBytes, &req); err != nil {
		service.WriteError(w, code, fmt.Errorf("cluster: bad batch body: %w", err))
		return
	}
	if len(req.Jobs) == 0 {
		service.WriteError(w, http.StatusBadRequest, fmt.Errorf("cluster: empty batch"))
		return
	}
	if len(req.Jobs) > maxBatch {
		service.WriteError(w, http.StatusBadRequest, fmt.Errorf("cluster: batch of %d exceeds %d", len(req.Jobs), maxBatch))
		return
	}
	resp := batchResponse{Jobs: make([]batchItem, 0, len(req.Jobs))}
	for _, jr := range req.Jobs {
		st, created, err := srv.coord.Submit(jr)
		if errors.Is(err, service.ErrShuttingDown) {
			w.Header().Set("Retry-After", "5")
			service.WriteError(w, http.StatusServiceUnavailable, err)
			return
		}
		item := batchItem{JobStatus: st, Deduped: err == nil && !created}
		if err != nil {
			item.Error = err.Error()
		}
		resp.Jobs = append(resp.Jobs, item)
	}
	service.WriteJSON(w, http.StatusOK, resp)
}

func (srv *Server) handleCluster(w http.ResponseWriter, _ *http.Request) {
	members := srv.coord.Members()
	alive := 0
	for _, m := range members {
		if m.Alive {
			alive++
		}
	}
	service.WriteJSON(w, http.StatusOK, map[string]interface{}{
		"node":    srv.coord.cfg.Node,
		"role":    "primary",
		"epoch":   srv.coord.Epoch(),
		"fenced":  srv.coord.Fenced(),
		"alive":   alive,
		"members": members,
	})
}

// handleJournalStream serves the coordinator's journal as NDJSON: a meta line
// carrying the coordinator's identity and epoch, every journal record
// from the head, then a live tail with heartbeat lines during silence.
// This is the standby's replication feed — by tailing it, a standby
// holds the same record sequence the primary has on disk and can
// promote from its local copy the moment the stream (and the
// heartbeats within it) stops.
func (srv *Server) handleJournalStream(w http.ResponseWriter, r *http.Request) {
	j := srv.coord.Journal()
	if j == nil {
		service.WriteError(w, http.StatusNotFound, fmt.Errorf("cluster: coordinator runs without a journal"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	meta := fmt.Sprintf("{\"meta\":true,\"epoch\":%d,\"node\":%q,\"version\":%q}\n",
		srv.coord.Epoch(), srv.coord.cfg.Node, service.JournalVersion)
	if _, err := fmt.Fprint(w, meta); err != nil {
		return
	}
	if flusher != nil {
		flusher.Flush()
	}

	hb := srv.coord.cfg.ProbeInterval
	from := 0
	var line []byte
	for {
		recs, next, updated := j.Snapshot(from)
		from = next
		for _, rec := range recs {
			// rec is the journal mirror's own slice, shared with every
			// other stream: the newline goes into this stream's buffer.
			line = append(append(line[:0], rec...), '\n')
			if _, err := w.Write(line); err != nil {
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		hbT := time.NewTimer(hb)
		select {
		case <-r.Context().Done():
			hbT.Stop()
			return
		case <-srv.coord.Done():
			hbT.Stop()
			return
		case <-updated:
			hbT.Stop()
		case <-hbT.C:
			// Liveness signal: a standby distinguishes "idle primary" from
			// "dead primary" by these, not by journal traffic.
			if _, err := fmt.Fprint(w, "{\"hb\":true}\n"); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
}

// handleStream emits NDJSON job statuses in completion order: one
// compact JSON line per job as it reaches a terminal state, flushed
// immediately. ?ids=a,b,c selects jobs (default: all known); ?timeout
// bounds the wait (default 5m). Unknown IDs yield an error line.
func (srv *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	var ids []string
	if q := r.URL.Query().Get("ids"); q != "" {
		for _, id := range strings.Split(q, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
	} else {
		for _, st := range srv.coord.Jobs() {
			ids = append(ids, st.ID)
		}
	}
	timeout := 5 * time.Minute
	if q := r.URL.Query().Get("timeout"); q != "" {
		d, err := time.ParseDuration(q)
		if err != nil || d <= 0 {
			service.WriteError(w, http.StatusBadRequest, fmt.Errorf("cluster: bad timeout %q", q))
			return
		}
		timeout = d
	}

	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	type line struct {
		st  JobStatus
		err error
		id  string
	}
	ch := make(chan line, len(ids))
	for _, id := range ids {
		go func(id string) {
			st, err := srv.coord.Wait(ctx, id)
			ch <- line{st: st, err: err, id: id}
		}(id)
	}
	enc := json.NewEncoder(w) // no indent: one object per line
	for range ids {
		l := <-ch
		if l.err != nil {
			_ = enc.Encode(map[string]string{"id": l.id, "error": l.err.Error()})
		} else {
			_ = enc.Encode(l.st)
		}
		if flusher != nil {
			flusher.Flush()
		}
		if ctx.Err() != nil && l.err != nil {
			return // timed out: remaining waiters would all report the same
		}
	}
}

// handleMetrics serves the cluster-wide exposition: every live node's
// /v1/metrics parsed, stamped with node=<membership name> (the
// coordinator's name for the worker is authoritative, whatever the
// worker calls itself), merged family-by-family with the coordinator's
// own series, and re-emitted as one text 0.0.4 document.
func (srv *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	c := srv.coord
	members := c.Members()

	type scrape struct {
		name     string
		families []expo.Family
		err      error
	}
	results := make([]scrape, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		if !m.Alive {
			continue
		}
		wg.Add(1)
		go func(i int, name, url string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
			defer cancel()
			b, err := c.client.send(ctx, name, http.MethodGet, url+"/v1/metrics", nil, maxRaw)
			var fams []expo.Family
			if err == nil {
				fams, err = expo.Parse(string(b))
			}
			if err == nil {
				expo.SetLabel(fams, "node", name)
			}
			results[i] = scrape{name: name, families: fams, err: err}
		}(i, m.Name, m.URL)
	}
	wg.Wait()

	// The coordinator's own series, including per-worker scrape health so
	// the exposition itself shows which nodes this document covers.
	var b strings.Builder
	fmt.Fprintf(&b, "# HELP acbd_cluster_workers Fleet members by probed liveness.\n# TYPE acbd_cluster_workers gauge\n")
	alive, dead := 0, 0
	for _, m := range members {
		if m.Alive {
			alive++
		} else {
			dead++
		}
	}
	fmt.Fprintf(&b, "acbd_cluster_workers{state=\"alive\"} %d\n", alive)
	fmt.Fprintf(&b, "acbd_cluster_workers{state=\"dead\"} %d\n", dead)
	fmt.Fprintf(&b, "# HELP acbd_cluster_jobs Cluster jobs by lifecycle state.\n# TYPE acbd_cluster_jobs gauge\n")
	counts := c.JobCounts()
	for _, st := range service.States {
		fmt.Fprintf(&b, "acbd_cluster_jobs{state=%q} %d\n", st, counts[st])
	}
	fmt.Fprintf(&b, "# HELP acbd_cluster_events_total Monotonic coordinator events.\n# TYPE acbd_cluster_events_total counter\n")
	for _, name := range c.counters.Names() {
		fmt.Fprintf(&b, "acbd_cluster_events_total{event=%q} %d\n", name, c.counters.Get(name))
	}
	fmt.Fprintf(&b, "# HELP acbd_failovers_total Standby-to-primary promotions this process has performed.\n# TYPE acbd_failovers_total counter\n")
	fmt.Fprintf(&b, "acbd_failovers_total %d\n", c.counters.Get("failovers"))
	fmt.Fprintf(&b, "# HELP acbd_journal_replays_total Journal replays performed at startup (nonzero after a crash-restart or failover recovery).\n# TYPE acbd_journal_replays_total counter\n")
	fmt.Fprintf(&b, "acbd_journal_replays_total %d\n", c.counters.Get("journal_replays"))
	fmt.Fprintf(&b, "# HELP acbd_cluster_scrape_up Whether this exposition includes the worker's series (0 = dead or scrape failed).\n# TYPE acbd_cluster_scrape_up gauge\n")
	for i, m := range members {
		up := 0
		if m.Alive && results[i].err == nil {
			up = 1
		}
		fmt.Fprintf(&b, "acbd_cluster_scrape_up{worker=%q} %d\n", m.Name, up)
	}
	self, err := expo.Parse(b.String())
	if err != nil {
		service.WriteError(w, http.StatusInternalServerError, fmt.Errorf("cluster: self metrics: %w", err))
		return
	}
	expo.SetLabel(self, "node", c.cfg.Node)

	inputs := [][]expo.Family{self}
	for _, s := range results {
		if s.name == "" {
			continue // dead member: never scraped
		}
		if s.err != nil {
			c.counters.Add("scrape_errors", 1)
			continue
		}
		inputs = append(inputs, s.families)
	}
	merged := expo.Merge(inputs...)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = expo.Write(w, merged)
}
