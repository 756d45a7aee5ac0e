// Command acbd is the simulation service daemon and its client.
//
// Serve mode runs one node. -role picks which kind:
//
//	acbd serve -addr :8315 -store-dir /var/lib/acbd -workers 2
//	acbd serve -role worker -node w1 -peers w1=http://h1:8315,w2=http://h2:8315
//	acbd serve -role coordinator -node coord -peers w1=http://h1:8315,w2=http://h2:8315
//
// A worker is a normal daemon whose result store peer-fetches by key
// from the shard owning it; a coordinator fronts the fleet with the
// same job API plus batch submission, streaming results and aggregated
// metrics. With -journal the coordinator write-ahead-logs every
// placement and completion and replays it on restart; a second
// coordinator started with -standby <primary-url> tails that journal
// over HTTP and promotes itself — at a higher fencing epoch — when the
// primary goes silent:
//
//	acbd serve -role coordinator -node cb -standby http://ca:8315 \
//	    -peers w1=http://h1:8315,w2=http://h2:8315 -journal /var/lib/acbd/cb.journal
//
// Client mode submits one experiment to a running daemon or
// coordinator and (with -wait) polls it to completion:
//
//	acbd submit -addr http://localhost:8315 -experiment fig6 -workloads lammps,gobmk -wait -format ascii
//
// See docs/SERVICE.md and docs/CLUSTER.md for the API.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"acb/internal/cluster"
	"acb/internal/faultinject"
	"acb/internal/service"
	"acb/internal/stats"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = serve(os.Args[2:])
	case "submit":
		err = submit(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "acbd: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "acbd:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  acbd serve  [-role single|worker|coordinator] [-node NAME] [-peers n1=url,n2=url,...]
              [-addr :8315] [-store-dir DIR] [-store-cap N] [-journal FILE] [-queue N] [-workers N] [-jobs N]
              [-timeout D] [-max-timeout D] [-retries N] [-drain-timeout D] [-debug-addr :6060]
              [-probe-interval D] [-poll-interval D] [-dead-after N]
              [-standby PRIMARY_URL] [-lease FILE]
              [-fault-spec SPEC] [-fault-seed N]
  acbd submit [-addr URL] -experiment NAME [-workloads a,b] [-budget N] [-config NAME] [-timeout D]
              [-wait] [-format json|csv|ascii] [-submit-retries N]
`)
}

// parsePeers parses "name=url,name=url" into ordered members.
func parsePeers(spec string) ([]cluster.Member, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, errors.New("empty -peers")
	}
	var members []cluster.Member
	seen := make(map[string]bool)
	for _, part := range strings.Split(spec, ",") {
		name, url, ok := strings.Cut(strings.TrimSpace(part), "=")
		name, url = strings.TrimSpace(name), strings.TrimRight(strings.TrimSpace(url), "/")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("peer %q: want name=url", part)
		}
		if seen[name] {
			return nil, fmt.Errorf("duplicate peer name %q", name)
		}
		seen[name] = true
		members = append(members, cluster.Member{Name: name, URL: url})
	}
	return members, nil
}

func serve(args []string) error {
	fs := flag.NewFlagSet("acbd serve", flag.ExitOnError)
	var (
		role       = fs.String("role", "single", "node role: single | worker | coordinator")
		node       = fs.String("node", "", "node identity, stamped on every metrics series and used as the ring/membership name (default: hostname)")
		peersSpec  = fs.String("peers", "", "fleet membership as name=url,...: for -role worker the full fleet including this node; for -role coordinator the worker shards")
		addr       = fs.String("addr", ":8315", "HTTP listen address")
		storeDir   = fs.String("store-dir", "", "directory for the on-disk result tier (empty = memory only)")
		storeCap   = fs.Int("store-cap", 256, "tables held in the in-memory LRU tier")
		journalPth = fs.String("journal", "", "write-ahead job journal file; queued and running jobs survive a crash and re-run on restart (empty = disabled; conventionally <store-dir>/journal.jsonl)")
		queue      = fs.Int("queue", 64, "bounded job-queue depth (backpressure beyond it)")
		workers    = fs.Int("workers", 1, "jobs running concurrently")
		simJobs    = fs.Int("jobs", 0, "concurrent simulations per job (0 = GOMAXPROCS)")
		timeout    = fs.Duration("timeout", 0, "default per-job deadline for requests without timeout_ms (0 = none)")
		maxTimeout = fs.Duration("max-timeout", time.Hour, "cap on request-supplied job deadlines")
		retries    = fs.Int("retries", 3, "max runs per job (first run + retries of transient failures)")
		drain      = fs.Duration("drain-timeout", 2*time.Minute, "graceful-shutdown drain budget before cancelling running jobs")
		debug      = fs.String("debug-addr", "", "listen address for net/http/pprof (empty = disabled; keep it off the service port)")
		probeIvl   = fs.Duration("probe-interval", 500*time.Millisecond, "coordinator: worker heartbeat period")
		pollIvl    = fs.Duration("poll-interval", 250*time.Millisecond, "coordinator: long-poll window of a dispatch lane's job-status request (a running job's mirrored state is at most this old; completions are seen at once)")
		deadAfter  = fs.Int("dead-after", 3, "coordinator: consecutive failed probes before a worker is declared dead")
		standbyURL = fs.String("standby", "", "coordinator: run as a warm standby tailing this primary's journal; promotes when its heartbeats lapse")
		leasePth   = fs.String("lease", "", "coordinator: fsync'd fencing-epoch lease file (default: <journal>.lease when -journal is set)")
		faultSpec  = fs.String("fault-spec", "", "fault-injection rules, e.g. 'store.persist:error,prob=0.2;rpc.w2:error,nth=3,after=20,limit=10' (chaos testing only)")
		faultSeed  = fs.Int64("fault-seed", 1, "seed for probabilistic fault injection (reproducible chaos)")
		verbose    = fs.Bool("v", false, "per-job progress on stderr")
	)
	fs.Parse(args)
	if *node == "" {
		if hn, err := os.Hostname(); err == nil && hn != "" {
			*node = hn
		} else {
			*node = "acbd"
		}
	}
	logf := func(string, ...interface{}) {}
	if *verbose {
		logf = func(format string, a ...interface{}) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		}
	}
	var inj *faultinject.Injector
	if *faultSpec != "" {
		var err error
		if inj, err = faultinject.Parse(*faultSpec, *faultSeed); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "acbd: CHAOS MODE: injecting faults: %s (seed %d)\n", *faultSpec, *faultSeed)
	}

	store, err := service.NewStore(*storeCap, *storeDir)
	if err != nil {
		return err
	}
	if inj != nil {
		store.SetFaults(inj)
	}

	if *role == "coordinator" {
		members, err := parsePeers(*peersSpec)
		if err != nil {
			return fmt.Errorf("coordinator: %w", err)
		}
		ccfg := cluster.Config{
			Node:          *node,
			Workers:       members,
			QueueDepth:    *queue,
			ProbeInterval: *probeIvl,
			PollInterval:  *pollIvl,
			DeadAfter:     *deadAfter,
			Logf:          logf,
		}
		if inj != nil {
			ccfg.Faults = inj
		}
		if *leasePth == "" && *journalPth != "" {
			*leasePth = *journalPth + ".lease"
		}
		lease, err := cluster.OpenLease(*leasePth, *node)
		if err != nil {
			return err
		}
		if inj != nil {
			lease.SetFaults(inj)
		}

		if *standbyURL != "" {
			stb, err := cluster.NewStandby(cluster.StandbyConfig{
				Primary:     strings.TrimRight(*standbyURL, "/"),
				JournalPath: *journalPth,
				Lease:       lease,
				Cluster:     ccfg,
				Store:       store,
			})
			if err != nil {
				return err
			}
			stb.Start()
			fmt.Fprintf(os.Stderr, "acbd: standby coordinator %s tailing %s\n", *node, *standbyURL)
			return listenAndDrain(*addr, *debug, *drain, stb.Handler(), stb.Shutdown,
				fmt.Sprintf("standby-for=%q journal=%q", *standbyURL, *journalPth))
		}

		// Primary: every start claims a fresh, higher epoch. With -lease
		// the epoch is fsync'd and survives restarts; without it fencing
		// only orders coordinators within one process lifetime.
		if err := lease.Advance(lease.Epoch() + 1); err != nil {
			return fmt.Errorf("lease: %w", err)
		}
		ccfg.Epoch = lease.Epoch()
		if *journalPth != "" {
			journal, replay, err := cluster.OpenJournal(*journalPth)
			if err != nil {
				return fmt.Errorf("cluster journal: %w", err)
			}
			if inj != nil {
				journal.SetFaults(inj)
			}
			ccfg.Journal = journal
			ccfg.Replay = replay
			if len(replay) > 0 {
				fmt.Fprintf(os.Stderr, "acbd: cluster journal %s: replaying %d job(s)\n",
					*journalPth, len(replay))
			}
		}
		coord, err := cluster.New(ccfg, store)
		if err != nil {
			return err
		}
		coord.Start()
		fmt.Fprintf(os.Stderr, "acbd: coordinator %s over %d workers (epoch %d)\n", *node, len(members), ccfg.Epoch)
		return listenAndDrain(*addr, *debug, *drain, cluster.NewServer(coord).Handler(),
			coord.Shutdown, fmt.Sprintf("store-dir=%q workers=%d queue=%d epoch=%d", *storeDir, len(members), *queue, ccfg.Epoch))
	}
	if *standbyURL != "" || *leasePth != "" {
		return errors.New("-standby and -lease require -role coordinator")
	}

	cfg := service.SchedulerConfig{
		QueueDepth:     *queue,
		Workers:        *workers,
		SimJobs:        *simJobs,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		MaxAttempts:    *retries,
		Logf:           logf,
	}
	if inj != nil {
		cfg.Faults = inj
	}
	if *journalPth != "" {
		journal, replay, err := service.OpenJournal(*journalPth)
		if err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		cfg.Journal = journal
		cfg.Replay = replay
		if len(replay) > 0 {
			fmt.Fprintf(os.Stderr, "acbd: journal %s: replaying %d interrupted/queued job(s)\n",
				*journalPth, len(replay))
		}
	}

	switch *role {
	case "single":
		if *peersSpec != "" {
			return errors.New("-peers requires -role worker or coordinator")
		}
	case "worker":
		// The peer result cache: this shard fetches keys it misses from
		// the owning shard. The fleet must include this node so the ring
		// places this shard's own keys here (a local miss on an owned key
		// means "not computed yet", never a peer fetch).
		members, err := parsePeers(*peersSpec)
		if err != nil {
			return fmt.Errorf("worker: %w", err)
		}
		mm := make(map[string]string, len(members))
		for _, m := range members {
			mm[m.Name] = m.URL
		}
		if _, ok := mm[*node]; !ok {
			return fmt.Errorf("worker: node %q not in -peers (the fleet must include this node)", *node)
		}
		store.SetPeers(cluster.PeerFetcher(*node, mm, cluster.NewClient(0, faultsOrNil(inj))), 0)
		fmt.Fprintf(os.Stderr, "acbd: worker %s in a %d-shard fleet\n", *node, len(members))
	default:
		return fmt.Errorf("unknown -role %q (want single, worker or coordinator)", *role)
	}

	sched := service.NewScheduler(cfg, store)
	ssrv := service.NewServer(sched)
	ssrv.SetNode(*node)
	handler := ssrv.Handler()
	if *role == "worker" {
		// The epoch fence: coordinator RPCs carry X-Acbd-Epoch; anything
		// below the highest epoch seen here is rejected 409, which is what
		// keeps a fenced-out old primary from mutating this worker after a
		// failover. Readiness dips until the new coordinator reconciles us.
		fence := cluster.NewFence()
		ssrv.AddReadyCheck(fence.Ready)
		handler = fence.Middleware(handler)
	}
	return listenAndDrain(*addr, *debug, *drain, handler, sched.Shutdown,
		fmt.Sprintf("store-dir=%q workers=%d queue=%d", *storeDir, *workers, *queue))
}

// faultsOrNil avoids wrapping a nil *Injector in a non-nil interface.
func faultsOrNil(inj *faultinject.Injector) service.FaultPoints {
	if inj == nil {
		return nil
	}
	return inj
}

// listenAndDrain serves handler on addr until SIGINT/SIGTERM, then
// stops accepting HTTP and drains via shutdown within the drain budget.
func listenAndDrain(addr, debug string, drain time.Duration, handler http.Handler, shutdown func(context.Context) error, banner string) error {
	srv := &http.Server{Addr: addr, Handler: handler}

	// pprof rides on its own listener so the profiling surface never
	// shares a port with the public API. The net/http/pprof import
	// registers onto http.DefaultServeMux, which nothing else uses.
	var dbgSrv *http.Server
	if debug != "" {
		dbgSrv = &http.Server{Addr: debug, Handler: http.DefaultServeMux}
		go func() {
			fmt.Fprintf(os.Stderr, "acbd: pprof on %s\n", debug)
			if err := dbgSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "acbd: pprof server: %v\n", err)
			}
		}()
	}

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "acbd: listening on %s (%s)\n", addr, banner)
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "acbd: %v: draining (timeout %s)\n", sig, drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	// Stop accepting HTTP first, then drain the scheduler (or the
	// coordinator's in-flight fleet work); the write-through store has
	// nothing left to persist afterwards.
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "acbd: http shutdown: %v\n", err)
	}
	if dbgSrv != nil {
		_ = dbgSrv.Shutdown(ctx)
	}
	if err := shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w (running jobs were cancelled)", err)
	}
	fmt.Fprintln(os.Stderr, "acbd: drained cleanly")
	return nil
}

// retryPolicy retries transiently-refused submissions — 429 (queue
// full) and 503 (draining/not ready) — honoring the server's
// Retry-After hint when it parses and falling back to equal-jitter
// exponential backoff so a herd of refused clients spreads back out.
type retryPolicy struct {
	tries int           // total attempts, including the first
	base  time.Duration // backoff for the first retry
	max   time.Duration // backoff ceiling
	rng   *rand.Rand
	sleep func(time.Duration)
	now   func() time.Time // for Retry-After HTTP-date arithmetic
}

// maxRetryAfter caps how long a server-sent Retry-After hint can make a
// client wait — a clock-skewed HTTP date (or a hostile header) must not
// park a submission for hours.
const maxRetryAfter = 5 * time.Minute

func defaultRetryPolicy(tries int) *retryPolicy {
	return &retryPolicy{tries: tries, base: 500 * time.Millisecond, max: 30 * time.Second,
		rng: rand.New(rand.NewSource(time.Now().UnixNano())), sleep: time.Sleep, now: time.Now}
}

// post issues the request, retrying per the policy. The returned
// response is the last one received with its body unread; a final
// refusal after the budget is exhausted comes back as-is for the
// caller to surface.
func (p *retryPolicy) post(client *http.Client, url, contentType string, body []byte) (*http.Response, error) {
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(url, contentType, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusTooManyRequests && resp.StatusCode != http.StatusServiceUnavailable {
			return resp, nil
		}
		if attempt+1 >= p.tries {
			return resp, nil
		}
		d := p.delay(attempt, resp.Header.Get("Retry-After"))
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		fmt.Fprintf(os.Stderr, "acbd: %s; retrying in %s (attempt %d/%d)\n",
			resp.Status, d.Round(time.Millisecond), attempt+2, p.tries)
		p.sleep(d)
	}
}

// delay picks the wait before the next attempt: the Retry-After hint
// plus a little jitter when the server sent one, equal-jitter
// exponential backoff otherwise.
func (p *retryPolicy) delay(attempt int, retryAfter string) time.Duration {
	if hint, ok := p.parseRetryAfter(retryAfter); ok {
		return hint + time.Duration(p.rng.Int63n(int64(p.base/2)+1))
	}
	return service.Backoff(attempt, p.base, p.max, p.rng)
}

// parseRetryAfter interprets a Retry-After header in both RFC 9110 forms:
// delta-seconds and HTTP-date (the date converts to a wait against the
// local clock; one already in the past means "retry now"). Either form is
// clamped to maxRetryAfter. Returns ok=false for absent or unparseable
// values, which sends the caller to exponential backoff.
func (p *retryPolicy) parseRetryAfter(retryAfter string) (time.Duration, bool) {
	v := strings.TrimSpace(retryAfter)
	if v == "" {
		return 0, false
	}
	var d time.Duration
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0, false
		}
		d = time.Duration(secs) * time.Second
	} else if when, err := http.ParseTime(v); err == nil {
		d = when.Sub(p.now())
		if d < 0 {
			d = 0
		}
	} else {
		return 0, false
	}
	if d > maxRetryAfter {
		d = maxRetryAfter
	}
	return d, true
}

func submit(args []string) error {
	fs := flag.NewFlagSet("acbd submit", flag.ExitOnError)
	var (
		addr      = fs.String("addr", "http://localhost:8315", "daemon base URL")
		exp       = fs.String("experiment", "", "experiment name (required; see acbsweep -h)")
		workloads = fs.String("workloads", "", "comma-separated workload subset (default: full suite)")
		budget    = fs.Int64("budget", 0, "retired-instruction budget per simulation (0 = server default)")
		cfgName   = fs.String("config", "", "core configuration (default skylake)")
		timeout   = fs.Duration("timeout", 0, "job deadline, sent as timeout_ms (0 = server default; capped by the server)")
		wait      = fs.Bool("wait", false, "poll the job to completion and print the result table")
		format    = fs.String("format", "json", "result rendering with -wait: json | csv | ascii")
		interval  = fs.Duration("poll-interval", 250*time.Millisecond, "poll period with -wait")
		retries   = fs.Int("submit-retries", 5, "total submission attempts when the server answers 429/503")
	)
	fs.Parse(args)
	if *exp == "" {
		return errors.New("submit: -experiment is required")
	}
	if *retries < 1 {
		*retries = 1
	}

	req := service.Request{Experiment: *exp, Budget: *budget, Config: *cfgName,
		TimeoutMS: timeout.Milliseconds()}
	if *workloads != "" {
		for _, n := range strings.Split(*workloads, ",") {
			req.Workloads = append(req.Workloads, strings.TrimSpace(n))
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	base := strings.TrimRight(*addr, "/")
	resp, err := defaultRetryPolicy(*retries).post(http.DefaultClient, base+"/v1/jobs", "application/json", body)
	if err != nil {
		return err
	}
	var job service.JobStatus
	if err := decode(resp, &job); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "acbd: job %s %s (key %s)\n", job.ID, job.State, job.ResultKey)
	if !*wait {
		return json.NewEncoder(os.Stdout).Encode(job)
	}

	for job.State == service.JobQueued || job.State == service.JobRunning {
		time.Sleep(*interval)
		resp, err := http.Get(base + "/v1/jobs/" + job.ID)
		if err != nil {
			return err
		}
		if err := decode(resp, &job); err != nil {
			return err
		}
	}
	if job.State != service.JobDone {
		return fmt.Errorf("submit: job %s %s: %s", job.ID, job.State, job.Error)
	}

	resp, err = http.Get(base + "/v1/results/" + job.ResultKey)
	if err != nil {
		return err
	}
	var tab stats.Table
	if err := decode(resp, &tab); err != nil {
		return err
	}
	switch *format {
	case "json":
		b, err := json.Marshal(&tab)
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	case "csv":
		fmt.Print(tab.CSV())
	case "ascii":
		fmt.Print(tab.String())
	default:
		return fmt.Errorf("submit: unknown format %q", *format)
	}
	return nil
}

// decode reads an API response, turning non-2xx statuses into errors.
func decode(resp *http.Response, v interface{}) error {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var ae struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(b, &ae) == nil && ae.Error != "" {
			return fmt.Errorf("%s: %s", resp.Status, ae.Error)
		}
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, v)
}
