package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"acb/internal/service"
	"acb/internal/wal"
)

// StandbyConfig configures a warm standby coordinator.
type StandbyConfig struct {
	// Primary is the primary coordinator's base URL.
	Primary string
	// JournalPath is where the standby mirrors the primary's journal
	// ("" = memory-only mirror; promotion then recovers from the tailed
	// records alone).
	JournalPath string
	// Lease is the standby's own epoch lease; promotion advances it past
	// every epoch the primary was seen at. nil = memory-only lease.
	Lease *Lease
	// Cluster is the coordinator configuration used after promotion (and
	// for the tail cadence before it: ProbeInterval and DeadAfter set how
	// long the primary may go silent before the standby takes over).
	Cluster Config
	// Store backs the promoted coordinator's result cache (nil = a fresh
	// memory-only store; results re-warm from the workers).
	Store *service.Store
}

// Standby is a warm spare coordinator: it tails the primary's journal
// stream into a local fsync'd mirror and, when the primary's heartbeats
// lapse, promotes itself — advance the lease epoch past the primary's,
// replay the mirrored journal into a fresh Coordinator, and start
// serving the coordinator API where it previously answered 503. Workers
// learn of the takeover implicitly: the promoted coordinator's RPCs
// carry a higher epoch, which the worker fence adopts, and the old
// primary's stamps are rejected from then on.
type Standby struct {
	cfg  StandbyConfig
	http *http.Client // no global timeout: the tail is long-lived

	mu           sync.Mutex
	records      []json.RawMessage // mirrored journal since last stream head
	wlog         *wal.Log          // fsync'd mirror (nil = memory-only)
	primaryEpoch uint64            // highest epoch seen on the stream
	lastSeen     time.Time         // last stream byte (meta, record or heartbeat)
	// promoting is promote's re-entry guard and stops the tail and the
	// watchdog once takeover has begun. The standby counts as promoted
	// only once coord is set, so Promoted and Coordinator never disagree.
	promoting bool
	coord     *Coordinator
	handler   http.Handler

	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewStandby builds a standby. Call Start to begin tailing.
func NewStandby(cfg StandbyConfig) (*Standby, error) {
	if cfg.Primary == "" {
		return nil, fmt.Errorf("cluster: standby needs a primary URL")
	}
	cfg.Cluster.fillDefaults()
	s := &Standby{
		cfg:    cfg,
		http:   &http.Client{},
		stopCh: make(chan struct{}),
	}
	if cfg.JournalPath != "" {
		// Any records mirrored before a standby restart are the baseline;
		// the next successful tail resets them to the primary's stream
		// head, and they only matter if the standby promotes before it
		// ever reaches the primary.
		recs, err := service.ReadJournal(cfg.JournalPath)
		if err != nil {
			return nil, err
		}
		asAny := make([]interface{}, len(recs))
		for i, r := range recs {
			asAny[i] = r
		}
		wlog, err := wal.Create(cfg.JournalPath, service.JournalVersion, asAny)
		if err != nil {
			return nil, err
		}
		s.records = recs
		s.wlog = wlog
	}
	s.lastSeen = time.Now()
	return s, nil
}

// Start launches the tail and the promotion watchdog.
func (s *Standby) Start() {
	s.wg.Add(2)
	go s.tailLoop()
	go s.watchdog()
}

// Shutdown stops tailing (or, after promotion, shuts the coordinator
// down).
func (s *Standby) Shutdown(ctx context.Context) error {
	s.stopOnce.Do(func() { close(s.stopCh) })
	doneCh := make(chan struct{})
	go func() { s.wg.Wait(); close(doneCh) }()
	select {
	case <-doneCh:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.mu.Lock()
	coord, wlog := s.coord, s.wlog
	s.wlog = nil
	s.mu.Unlock()
	if coord != nil {
		return coord.Shutdown(ctx)
	}
	if wlog != nil {
		return wlog.Close()
	}
	return nil
}

// Promoted reports whether this standby has taken over: when it returns
// true, Coordinator returns the running coordinator.
func (s *Standby) Promoted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.coord != nil
}

// Coordinator returns the promoted coordinator (nil before promotion).
func (s *Standby) Coordinator() *Coordinator {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.coord
}

// tailLoop keeps one journal stream open against the primary,
// reconnecting with the probe cadence on any failure. Stream failures
// are not themselves promotion triggers — the watchdog's silence
// timer is — so a flapping connection to a live primary just
// re-streams.
func (s *Standby) tailLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stopCh:
			return
		default:
		}
		s.mu.Lock()
		promoting := s.promoting
		s.mu.Unlock()
		if promoting {
			return
		}
		s.tailOnce()
		select {
		case <-s.stopCh:
			return
		case <-time.After(s.cfg.Cluster.ProbeInterval):
		}
	}
}

// tailOnce runs one journal stream to exhaustion. The stream replays
// from the primary's journal head, so the local mirror resets on every
// (re)connect: what the primary has is the truth, and the mirror is a
// byte-for-byte copy of it.
func (s *Standby) tailOnce() {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-s.stopCh:
			cancel()
		case <-ctx.Done():
		}
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.cfg.Primary+"/v1/journal:stream", nil)
	if err != nil {
		return
	}
	resp, err := s.http.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	for sc.Scan() {
		line := make([]byte, len(sc.Bytes()))
		copy(line, sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ctl struct {
			Meta  bool   `json:"meta"`
			HB    bool   `json:"hb"`
			Epoch uint64 `json:"epoch"`
		}
		if err := json.Unmarshal(line, &ctl); err != nil {
			continue
		}
		s.mu.Lock()
		if s.promoting {
			s.mu.Unlock()
			return
		}
		s.lastSeen = time.Now()
		switch {
		case ctl.Meta:
			if ctl.Epoch > s.primaryEpoch {
				s.primaryEpoch = ctl.Epoch
			}
			// Stream head: the primary replays its whole journal, so drop
			// the previous mirror and start clean.
			s.records = s.records[:0]
			if s.wlog != nil {
				s.wlog.Close()
				if wlog, err := wal.Create(s.cfg.JournalPath, service.JournalVersion, nil); err == nil {
					s.wlog = wlog
				} else {
					s.wlog = nil
					s.cfg.Cluster.Logf("cluster: standby mirror reset: %v", err)
				}
			}
		case ctl.HB:
			// heartbeat only refreshes lastSeen
		default:
			s.records = append(s.records, json.RawMessage(line))
			if s.wlog != nil {
				if err := s.wlog.Append(json.RawMessage(line)); err != nil {
					s.cfg.Cluster.Logf("cluster: standby mirror append: %v", err)
				}
			}
		}
		s.mu.Unlock()
	}
}

// watchdog promotes when the primary has been silent — no records, no
// heartbeats, no successful reconnect — for DeadAfter probe intervals:
// the same policy the primary applies to workers, pointed back at it.
func (s *Standby) watchdog() {
	defer s.wg.Done()
	silence := time.Duration(s.cfg.Cluster.DeadAfter) * s.cfg.Cluster.ProbeInterval
	t := time.NewTicker(s.cfg.Cluster.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-t.C:
			s.mu.Lock()
			lapsed := !s.promoting && time.Since(s.lastSeen) > silence
			s.mu.Unlock()
			if lapsed {
				s.promote()
				return
			}
		}
	}
}

// promote turns the standby into the primary: fence the old one out by
// advancing the lease epoch past everything observed, replay the
// mirrored journal into a job table, and start a coordinator whose
// lanes re-attach to in-flight jobs where the journal placed them, not
// re-run them.
func (s *Standby) promote() {
	s.mu.Lock()
	if s.promoting {
		s.mu.Unlock()
		return
	}
	s.promoting = true
	if s.wlog != nil {
		s.wlog.Close()
		s.wlog = nil
	}
	records := s.records
	epoch := s.primaryEpoch
	s.mu.Unlock()

	if le := s.cfg.Lease.Epoch(); le > epoch {
		epoch = le
	}
	epoch++
	if err := s.cfg.Lease.Advance(epoch); err != nil {
		// Advancing past a corrupt lease can fail; promote anyway — a
		// standby that refuses to take over loses the whole sweep, while
		// an un-fsync'd epoch only risks a fencing gap after yet another
		// crash.
		s.cfg.Cluster.Logf("cluster: standby lease advance: %v", err)
	}

	cfg := s.cfg.Cluster
	cfg.Epoch = epoch
	cfg.Promoted = true
	if s.cfg.JournalPath != "" {
		journal, replay, err := OpenJournal(s.cfg.JournalPath)
		if err != nil {
			s.cfg.Cluster.Logf("cluster: standby journal open: %v; recovering from memory", err)
			cfg.Journal, cfg.Replay = nil, service.ReduceJournal(records)
		} else {
			cfg.Journal, cfg.Replay = journal, replay
		}
	} else {
		cfg.Replay = service.ReduceJournal(records)
	}

	store := s.cfg.Store
	if store == nil {
		store, _ = service.NewStore(256, "") // memory-only never fails
	}
	coord, err := New(cfg, store)
	if err != nil {
		s.cfg.Cluster.Logf("cluster: standby promotion failed: %v", err)
		return
	}
	coord.Start()
	s.mu.Lock()
	s.coord = coord
	s.handler = NewServer(coord).Handler()
	s.mu.Unlock()
	s.cfg.Cluster.Logf("cluster: standby promoted to primary at epoch %d (%d journal records)", epoch, len(records))
}

// Handler serves the standby's HTTP face: health and role endpoints
// while tailing (everything else 503s with Retry-After, so clients and
// load balancers fail over cleanly), and the full coordinator API once
// promoted.
func (s *Standby) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		h := s.handler
		s.mu.Unlock()
		if h != nil {
			h.ServeHTTP(w, r)
			return
		}
		switch {
		case r.Method == http.MethodGet && r.URL.Path == "/v1/healthz":
			service.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		case r.Method == http.MethodGet && r.URL.Path == "/v1/readyz":
			w.Header().Set("Retry-After", "1")
			service.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{
				"status": "not ready",
				"reason": "standby: tailing " + s.cfg.Primary,
			})
		case r.Method == http.MethodGet && r.URL.Path == "/v1/cluster":
			s.mu.Lock()
			epoch := s.primaryEpoch
			s.mu.Unlock()
			service.WriteJSON(w, http.StatusOK, map[string]interface{}{
				"node":    s.cfg.Cluster.Node,
				"role":    "standby",
				"primary": s.cfg.Primary,
				"epoch":   epoch,
			})
		default:
			w.Header().Set("Retry-After", "2")
			service.WriteError(w, http.StatusServiceUnavailable,
				fmt.Errorf("cluster: standby for %s; not serving the coordinator API", s.cfg.Primary))
		}
	})
}
