package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"acb/internal/cluster"
	"acb/internal/config"
	"acb/internal/experiments"
	"acb/internal/expo"
	"acb/internal/service"
	"acb/internal/workload"
)

// Fleet settings: cmd/acbd's serve defaults.
const (
	fleetQueue    = 64
	fleetStoreCap = 256
	probeInterval = 500 * time.Millisecond
	pollInterval  = 250 * time.Millisecond
)

// fleet is an in-process acbd fleet on loopback HTTP: a journaled,
// leased coordinator and two workers (Workers=1, SimJobs=1) with fsync'd
// journals and disk stores, wired the way `acbd serve` wires them.
type fleet struct {
	dir        string
	url        string // coordinator
	journal    string // coordinator journal path
	coord      *cluster.Coordinator
	workers    []fleetWorker
	servers    []*http.Server // coordinator first
	serveGroup sync.WaitGroup
}

type fleetWorker struct {
	name, url string
	sched     *service.Scheduler
}

func startFleet(dir string) (f *fleet, err error) {
	f = &fleet{dir: dir, journal: filepath.Join(dir, "coord", "journal.jsonl")}
	var lns [3]net.Listener // coordinator, w1, w2
	defer func() {
		if err != nil {
			if len(f.servers) == 0 { // servers close their own listeners
				for _, ln := range lns {
					if ln != nil {
						ln.Close()
					}
				}
			}
			f.stop()
		}
	}()
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return f, err
		}
	}
	f.url = "http://" + lns[0].Addr().String()
	members := make([]cluster.Member, 2)
	byName := map[string]string{}
	for i := range members {
		members[i] = cluster.Member{Name: fmt.Sprintf("w%d", i+1), URL: "http://" + lns[i+1].Addr().String()}
		byName[members[i].Name] = members[i].URL
	}

	// Coordinator: store, lease at a fresh epoch, journal, control loop.
	if err := os.MkdirAll(filepath.Dir(f.journal), 0o755); err != nil {
		return f, err
	}
	store, err := service.NewStore(fleetStoreCap, filepath.Join(dir, "coord", "store"))
	if err != nil {
		return f, err
	}
	lease, err := cluster.OpenLease(f.journal+".lease", "coord")
	if err != nil {
		return f, err
	}
	if err := lease.Advance(lease.Epoch() + 1); err != nil {
		return f, err
	}
	cj, creplay, err := cluster.OpenJournal(f.journal)
	if err != nil {
		return f, err
	}
	f.coord, err = cluster.New(cluster.Config{
		Node: "coord", Workers: members, QueueDepth: fleetQueue,
		ProbeInterval: probeInterval, PollInterval: pollInterval, DeadAfter: 3,
		Epoch: lease.Epoch(), Journal: cj, Replay: creplay,
	}, store)
	if err != nil {
		cj.Close()
		return f, err
	}
	handlers := []http.Handler{cluster.NewServer(f.coord).Handler()}

	// Workers: peer-fetching disk store, journaled scheduler, epoch fence.
	for _, m := range members {
		wdir := filepath.Join(dir, m.Name)
		if err := os.MkdirAll(wdir, 0o755); err != nil {
			return f, err
		}
		ws, err := service.NewStore(fleetStoreCap, filepath.Join(wdir, "store"))
		if err != nil {
			return f, err
		}
		ws.SetPeers(cluster.PeerFetcher(m.Name, byName, cluster.NewClient(0, nil)), 0)
		j, replay, err := service.OpenJournal(filepath.Join(wdir, "journal.jsonl"))
		if err != nil {
			return f, err
		}
		sched := service.NewScheduler(service.SchedulerConfig{
			QueueDepth: fleetQueue, Workers: 1, SimJobs: 1, Journal: j, Replay: replay,
		}, ws)
		f.workers = append(f.workers, fleetWorker{name: m.Name, url: m.URL, sched: sched})
		srv := service.NewServer(sched)
		srv.SetNode(m.Name)
		fence := cluster.NewFence()
		srv.AddReadyCheck(fence.Ready)
		handlers = append(handlers, fence.Middleware(srv.Handler()))
	}
	for i, h := range handlers {
		hs := &http.Server{Handler: h}
		f.servers = append(f.servers, hs)
		f.serveGroup.Add(1)
		go func(ln net.Listener) {
			defer f.serveGroup.Done()
			hs.Serve(ln) // returns ErrServerClosed on stop
		}(lns[i])
	}
	f.coord.Start()

	c := newClient(f.url, 1)
	defer c.close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, _, err := c.do(http.MethodGet, "/v1/readyz", nil)
		if err == nil && code == http.StatusOK {
			return f, nil
		}
		if time.Now().After(deadline) {
			return f, fmt.Errorf("fleet not ready after 10s (status %d, %v)", code, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the fleet down: HTTP first, then the coordinator loop, then
// the workers' schedulers (which close their journals).
func (f *fleet) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	for _, hs := range f.servers {
		errs = append(errs, hs.Shutdown(ctx))
	}
	if f.coord != nil {
		errs = append(errs, f.coord.Shutdown(ctx))
	}
	for _, w := range f.workers {
		errs = append(errs, w.sched.Shutdown(ctx))
	}
	f.serveGroup.Wait()
	return errors.Join(errs...)
}

// discardFleet stops a set-up repetition and deletes its state.
func discardFleet(f *fleet) error {
	return errors.Join(f.stop(), os.RemoveAll(f.dir))
}

// client is the load generator's HTTP client: at most conns connections,
// no proxy, bodies always drained.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string, conns int) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		Proxy: nil, MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status and the whole body.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// doJSON sends one request, requires a 2xx status and decodes the body.
func (c *client) doJSON(method, path string, body []byte, out interface{}) error {
	code, b, err := c.do(method, path, body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if code/100 != 2 {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, code, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, out)
}

// references computes each workload's fig6 table in process, as the
// bytes GET /v1/results/{key} must return for it.
func references(ws []workload.Workload, budget int64) (map[string][]byte, error) {
	refs := make(map[string][]byte, len(ws))
	for _, w := range ws {
		tab, err := experiments.Run("fig6", experiments.Options{
			Budget: budget, Workloads: []workload.Workload{w}, Config: config.Skylake(), Jobs: 1,
		})
		if err != nil {
			return nil, err
		}
		if refs[w.Name], err = json.Marshal(tab); err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// job is one submission of a batch, with what the client saw of it.
type job struct {
	req      service.Request
	id, key  string
	post     time.Time // batch POST sent
	line     time.Time // its stream line arrived
	status   cluster.JobStatus
	err      error
	original int // index of the first submission of the same job
}

// batchItem is one entry of a POST /v1/jobs:batch reply.
type batchItem struct {
	cluster.JobStatus
	Error string `json:"error"`
}

// runBatch submits jobs in one POST /v1/jobs:batch, waits for every
// distinct job on GET /v1/results:stream, then fetches each result and
// compares its bytes with want (by the job's first workload). It fills
// each job's fields; a transport failure fails every job.
func runBatch(c *client, jobs []job, want map[string][]byte) {
	fail := func(err error) {
		for i := range jobs {
			if jobs[i].err == nil {
				jobs[i].err = err
			}
		}
	}
	reqs := make([]service.Request, len(jobs))
	for i := range jobs {
		reqs[i] = jobs[i].req
	}
	body, err := json.Marshal(map[string]interface{}{"jobs": reqs})
	if err != nil {
		fail(err)
		return
	}
	post := time.Now()
	var reply struct{ Jobs []batchItem }
	if err := c.doJSON(http.MethodPost, "/v1/jobs:batch", body, &reply); err != nil {
		fail(err)
		return
	}
	if len(reply.Jobs) != len(jobs) {
		fail(fmt.Errorf("batch of %d answered with %d items", len(jobs), len(reply.Jobs)))
		return
	}
	first := map[string]int{}
	var ids []string
	for i, it := range reply.Jobs {
		j := &jobs[i]
		j.post, j.id, j.original = post, it.ID, i
		if it.Error != "" || it.ID == "" {
			j.err = fmt.Errorf("submit %s: %q", j.req.Workloads[0], it.Error)
			continue
		}
		if o, seen := first[it.ID]; seen {
			j.original = o
			continue
		}
		first[it.ID] = i
		ids = append(ids, it.ID)
	}

	if len(ids) > 0 {
		resp, err := c.hc.Get(c.base + "/v1/results:stream?timeout=60s&ids=" + strings.Join(ids, ","))
		if err != nil {
			fail(err)
			return
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			fail(fmt.Errorf("results stream: HTTP %d", resp.StatusCode))
			return
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 16<<20)
		for sc.Scan() {
			now := time.Now()
			var st cluster.JobStatus
			if err := json.Unmarshal(sc.Bytes(), &st); err != nil {
				continue
			}
			if i, ok := first[st.ID]; ok {
				jobs[i].line, jobs[i].status = now, st
			}
		}
		err = sc.Err()
		resp.Body.Close()
		if err != nil {
			fail(fmt.Errorf("results stream: %w", err))
			return
		}
	}
	for i := range jobs {
		j := &jobs[i]
		if j.original != i || j.err != nil {
			continue
		}
		switch {
		case j.line.IsZero():
			j.err = fmt.Errorf("job %s (%s): no stream line", j.id, j.req.Workloads[0])
		case j.status.State != service.JobDone:
			j.err = fmt.Errorf("job %s (%s): %s %s", j.id, j.req.Workloads[0], j.status.State, j.status.Error)
		default:
			j.key = j.status.ResultKey
			code, b, err := c.do(http.MethodGet, "/v1/results/"+j.key, nil)
			switch {
			case err != nil:
				j.err = err
			case code != http.StatusOK:
				j.err = fmt.Errorf("GET result %s: HTTP %d", j.key, code)
			case !bytes.Equal(b, want[j.req.Workloads[0]]):
				j.err = fmt.Errorf("job %s (%s): result differs from the in-process reference", j.id, j.req.Workloads[0])
			}
		}
	}
	for i := range jobs {
		if o := jobs[i].original; o != i {
			jobs[i].err, jobs[i].key = jobs[o].err, jobs[o].key
		}
	}
}

// counters scrapes the coordinator's cluster-wide /v1/metrics and sums
// every counter sample by family and event label across nodes.
func counters(c *client) (map[string]float64, error) {
	code, b, err := c.do(http.MethodGet, "/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/metrics: HTTP %d", code)
	}
	fams, err := expo.Parse(string(b))
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, fam := range fams {
		for _, s := range fam.Samples {
			v, err := strconv.ParseFloat(s.Value, 64)
			if err != nil {
				continue
			}
			key := s.Name
			for _, l := range s.Labels {
				if l.Name == "event" {
					key += "/" + l.Value
				}
			}
			out[key] += v
		}
	}
	return out, nil
}

func fileSize(path string) float64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(st.Size())
}

// fleetCounters records the cluster counter metrics between two scrapes.
func fleetCounters(res *result, before, after map[string]float64, journalBytes float64) {
	d := func(k string) float64 { return after[k] - before[k] }
	submitted := d("acbd_cluster_events_total/submitted")
	deduped := d("acbd_cluster_events_total/deduped")
	fresh := submitted - d("acbd_cluster_events_total/cache_hits")
	res.layer["cluster.steals_per_job"] = ratio(d("acbd_cluster_events_total/stolen"), fresh)
	res.layer["cluster.dedup_share"] = ratio(deduped, submitted+deduped)
	res.layer["cluster.sims_per_fresh_job"] = ratio(d("acbd_events_total/simulated"), fresh)
	res.layer["cluster.rpc_errors"] = d("acbd_cluster_events_total/rpc_errors")
	res.layer["cluster.journal_bytes_per_job"] = ratio(journalBytes, submitted)
}

// fleetNames are the fleet workloads' suite programs: eight that neither
// chase pointers nor build multi-MB images, so every job costs about the
// same (0.1-0.17 s at 100k on a 2-CPU host) and the serving path, not one
// cold-memory simulation, decides the latency.
var fleetNames = []string{"gcc", "omnetpp", "xz", "leela", "lammps", "perlbench", "bzip2", "gobmk"}

// Batch shape of fleet-sweep: fresh jobs plus repeats of earlier jobs of
// the same batch (deduplicated in flight).
const (
	batchFresh   = 14
	batchRepeats = 2
)

// runFleetSweep is the fleet-sweep workload: one client submits batches
// of fig6 jobs back to back, each waited for on the results stream and
// fetched, and each preceded by a host-speed sample. An operation is one
// fresh job; its latency runs from the batch POST to the job's stream
// line, divided by its batch's index.
func runFleetSweep(cfg settings, tr *tracer) (*result, error) {
	res := newResult()
	ws, err := workloadsNamed(fleetNames)
	if err != nil {
		return nil, err
	}
	var refs map[string][]byte
	f, err := setup(cfg, res, func(rep int) (*fleet, error) {
		f, err := startFleet(filepath.Join(cfg.workDir, fmt.Sprintf("sweep-%d", rep)))
		if err != nil {
			return nil, err
		}
		if refs, err = references(ws, cfg.fleetBudget); err != nil {
			return nil, errors.Join(err, f.stop())
		}
		return f, nil
	}, discardFleet)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	c := newClient(f.url, 1)
	defer c.close()

	// The seed picks the fresh keys (and so their placement), the order in
	// which batches cycle through the workloads, and the repeats. Cycling
	// keeps every batch's mix alike.
	rng := rand.New(rand.NewSource(cfg.seed))
	seed := rng.Int63n(1 << 40) // fresh keys count up from here
	cycle := rng.Perm(len(ws))
	newBatch := func() []job {
		jobs := make([]job, batchFresh, batchFresh+batchRepeats)
		for i := range jobs {
			seed++
			jobs[i].req = service.Request{Experiment: "fig6", Budget: cfg.fleetBudget, Seed: seed,
				Workloads: []string{ws[cycle[int(seed)%len(ws)]].Name}}
		}
		for _, i := range rng.Perm(batchFresh)[:batchRepeats] {
			jobs = append(jobs, job{req: jobs[i].req})
		}
		return jobs
	}
	check := func(jobs []job) {
		for _, j := range jobs {
			res.check(j.err)
		}
	}

	warmup := newBatch()
	runBatch(c, warmup, refs)
	check(warmup)
	var before map[string]float64
	journal0 := fileSize(f.journal)
	if tr != nil {
		if before, err = counters(c); err != nil {
			return nil, err
		}
	}
	var (
		batches scaled      // seconds, bare batches
		durable [][]float64 // ms, each bare batch's fresh jobs
		traced  [][]job
		oh      = newOverheads()
		start   = time.Now()
	)
	for n := 0; n == 0 || time.Since(start) < cfg.measure; n++ {
		jobs := newBatch()
		idx := cfg.speed.sample()
		t0 := time.Now()
		runBatch(c, jobs, refs)
		d := time.Since(t0)
		oh.add("batch", tr != nil && n%2 == 1, d)
		check(jobs)
		if tr != nil && n%2 == 1 {
			traced = append(traced, jobs)
			continue
		}
		batches.add(d.Seconds(), idx)
		var ms []float64
		for i, j := range jobs {
			if j.original == i && j.err == nil {
				ms = append(ms, float64(j.line.Sub(j.post))/1e6)
			}
		}
		durable = append(durable, ms)
	}
	if tr == nil {
		var all, raw []float64
		var busy, rawBusy float64
		for b, ms := range durable {
			f := batches.factor(b)
			busy += batches.raw[b] / f
			rawBusy += batches.raw[b]
			for _, v := range ms {
				all = append(all, v/f)
			}
			raw = append(raw, ms...)
		}
		fmt.Fprintf(os.Stderr, "host time: %d fresh jobs in %.4g s (%.4g s at nominal speed), median %.4g ms\n",
			len(raw), rawBusy, busy, median(raw))
		res.latencies(all, busy)
		return res, nil
	}

	after, err := counters(c)
	if err != nil {
		return nil, err
	}
	fleetCounters(res, before, after, fileSize(f.journal)-journal0)
	if err := sweepSpans(res, tr, f, traced); err != nil {
		return nil, err
	}
	res.layer["trace_overhead_pct"] = oh.pct()
	return res, nil
}

// sweepSpans splits each traced fresh job's durable latency at the layer
// boundaries its coordinator and worker statuses timestamp, records the
// spans, and sets each layer's share of the total.
func sweepSpans(res *result, tr *tracer, f *fleet, batches [][]job) error {
	onWorker := map[string]service.JobStatus{} // result key → done worker job
	for _, w := range f.workers {
		c := newClient(w.url, 1)
		var list struct{ Jobs []service.JobStatus }
		err := c.doJSON(http.MethodGet, "/v1/jobs", nil, &list)
		c.close()
		if err != nil {
			return err
		}
		for _, st := range list.Jobs {
			if st.State == service.JobDone && !st.CacheHit {
				onWorker[st.ResultKey] = st
			}
		}
	}
	names := []string{"cluster.submit", "cluster.dispatch", "service.queue", "service.sim", "cluster.complete", "cluster.notify"}
	sums := make([]float64, len(names))
	var total float64
	lane := 100
	for _, jobs := range batches {
		for i, j := range jobs {
			w, ok := onWorker[j.key]
			if j.original != i || j.err != nil || !ok || w.Started == nil || w.Finished == nil || j.status.Finished == nil {
				continue
			}
			bounds := []time.Time{j.post, j.status.Created, w.Created, *w.Started, *w.Finished, *j.status.Finished, j.line}
			lane++
			tr.add(span{Name: "durable", Cat: "client", ID: j.id, Lane: lane, Start: j.post, End: j.line,
				Args: map[string]interface{}{"workload": j.req.Workloads[0], "worker": j.status.Worker}})
			for k, name := range names {
				sums[k] += bounds[k+1].Sub(bounds[k]).Seconds()
				tr.add(span{Name: name, Cat: strings.Split(name, ".")[0], ID: j.id, Parent: "durable", Lane: lane,
					Start: bounds[k], End: bounds[k+1]})
			}
			total += j.line.Sub(j.post).Seconds()
		}
	}
	for k, name := range names {
		res.layer[name+"_share"] = ratio(sums[k], total)
	}
	return nil
}
