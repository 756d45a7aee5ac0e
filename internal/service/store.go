package service

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"acb/internal/stats"
	"acb/internal/wal"
)

// PeerFetchFunc fetches the raw stored-result envelope for key from
// whichever peer shard owns it. It returns (nil, nil) for an
// authoritative miss (no peer, or the owner does not have the key), the
// envelope bytes on a hit, and an error for transport or peer failures.
// The context carries the store's peer-fetch deadline.
type PeerFetchFunc func(ctx context.Context, key string) ([]byte, error)

// Store is the content-addressed result store: an in-memory LRU tier in
// front of an optional on-disk JSON tier, optionally backed by a peer
// tier — the cluster's other shards, consulted by key when both local
// tiers miss. Keys are Request.Key hashes, so a stored table is valid
// for every equivalent request under the current SimVersion. Writes go
// through to disk immediately (atomic temp-file-and-rename), which makes
// graceful shutdown persistence a no-op and lets a crashed daemon
// restart warm; peer-fetched results are filled back into both local
// tiers, so any node converges toward serving any result it has ever
// been asked for.
type Store struct {
	mu       sync.Mutex
	cap      int
	ll       *list.List // front = most recently used
	byKey    map[string]*list.Element
	dir      string // "" disables the disk tier
	hits     int64  // memory + disk + peer hits
	misses   int64
	diskErrs int64       // failed persists + unreadable/corrupt loads
	faults   FaultPoints // nil outside chaos tests

	// Peer tier. peerCalls single-flights concurrent fetches of one key
	// so a stampede of readers costs one RPC, not one each.
	peerFetch   PeerFetchFunc
	peerTimeout time.Duration
	peerHits    int64
	peerErrs    int64 // transport failures + corrupt/mismatched envelopes
	peerCalls   map[string]*peerCall
}

// peerCall is one in-flight peer fetch; latecomers wait on done and read
// tab (nil on a miss).
type peerCall struct {
	done chan struct{}
	tab  *stats.Table
}

type storeEntry struct {
	key string
	tab *stats.Table
}

// storedResult is the on-disk envelope for one result file
// (<dir>/<key>.json). The version field guards against key-scheme drift:
// files written under another SimVersion are ignored at read time.
type storedResult struct {
	Version string       `json:"version"`
	Key     string       `json:"key"`
	Request Request      `json:"request"`
	Table   *stats.Table `json:"table"`
}

// NewStore returns a store holding at most capacity tables in memory
// (minimum 1), persisting through to dir when dir is non-empty.
func NewStore(capacity int, dir string) (*Store, error) {
	if capacity < 1 {
		capacity = 1
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("service: store dir: %w", err)
		}
	}
	return &Store{
		cap:       capacity,
		ll:        list.New(),
		byKey:     make(map[string]*list.Element),
		dir:       dir,
		peerCalls: make(map[string]*peerCall),
	}, nil
}

// DefaultPeerTimeout bounds one peer fetch when SetPeers is given no
// explicit timeout: a slow shard must degrade to a local miss, not wedge
// every reader behind it.
const DefaultPeerTimeout = 2 * time.Second

// SetPeers installs the peer tier: fetch is consulted, with the given
// per-fetch timeout (0 = DefaultPeerTimeout), when a key misses both
// local tiers. Passing a nil fetch removes the tier.
func (s *Store) SetPeers(fetch PeerFetchFunc, timeout time.Duration) {
	if timeout <= 0 {
		timeout = DefaultPeerTimeout
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.peerFetch = fetch
	s.peerTimeout = timeout
}

// PeerStats returns cumulative peer-tier (hits, errors). Errors count
// transport failures and corrupt or mismatched envelopes; authoritative
// peer misses are neither.
func (s *Store) PeerStats() (hits, errs int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peerHits, s.peerErrs
}

// Get returns the table stored under key: the local tiers (GetLocal's
// lookup), then the peer tier when configured, which fills both local
// tiers on a hit. Only a miss in every tier counts as a miss. Keys that
// are not 64-hex-char hashes (i.e. not produced by Request.Key) always
// miss.
func (s *Store) Get(key string) (*stats.Table, bool) {
	tab := s.local(key)
	if tab == nil && validKey(key) {
		tab = s.peerGet(key)
	}
	return s.count(tab)
}

// GetLocal is Get restricted to the memory and disk tiers: it never
// consults peers. A coordinator's submission dedup reads through it, so
// fresh work does not pay a fleet-wide round of peer RPCs.
func (s *Store) GetLocal(key string) (*stats.Table, bool) {
	return s.count(s.local(key))
}

// local looks key up in the memory tier, then in the disk tier, and
// promotes a table loaded from disk into memory; nil on a miss.
func (s *Store) local(key string) *stats.Table {
	if !validKey(key) {
		return nil
	}
	s.mu.Lock()
	var tab *stats.Table
	if el, ok := s.byKey[key]; ok {
		s.ll.MoveToFront(el)
		tab = el.Value.(*storeEntry).tab
	}
	s.mu.Unlock()
	if tab == nil {
		if tab = s.load(key); tab != nil {
			s.mu.Lock()
			s.insertLocked(key, tab)
			s.mu.Unlock()
		}
	}
	return tab
}

// count records one lookup's outcome, a hit when tab is non-nil and a
// miss otherwise, and returns it.
func (s *Store) count(tab *stats.Table) (*stats.Table, bool) {
	if tab == nil {
		s.add(&s.misses)
		return nil, false
	}
	s.add(&s.hits)
	return tab, true
}

// peerGet consults the peer tier for key, single-flighting concurrent
// fetches: the first reader performs the RPC while latecomers wait for
// its outcome, so a stampede on one key costs one fetch. A hit fills
// both local tiers; nil on a miss.
func (s *Store) peerGet(key string) *stats.Table {
	s.mu.Lock()
	fetch, timeout := s.peerFetch, s.peerTimeout
	if fetch == nil {
		s.mu.Unlock()
		return nil
	}
	if c, ok := s.peerCalls[key]; ok {
		s.mu.Unlock()
		<-c.done
		return c.tab
	}
	c := &peerCall{done: make(chan struct{})}
	s.peerCalls[key] = c
	s.mu.Unlock()

	c.tab = s.fetchFromPeer(fetch, timeout, key)

	s.mu.Lock()
	delete(s.peerCalls, key)
	if c.tab != nil {
		s.peerHits++
	}
	s.mu.Unlock()
	close(c.done)
	return c.tab
}

// fetchFromPeer performs one peer fetch under the peer deadline and
// fills the local tiers with the envelope (fill). A transport failure or
// an envelope that fails decodeEnvelope is counted as a peer error and
// served as a miss; a (nil, nil) answer is a clean miss.
func (s *Store) fetchFromPeer(fetch PeerFetchFunc, timeout time.Duration, key string) *stats.Table {
	if err := s.fire("store.peer"); err != nil {
		s.add(&s.peerErrs)
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	b, err := fetch(ctx, key)
	if err == nil && b == nil {
		return nil // clean miss: no peer has the key
	}
	var tab *stats.Table
	if err == nil {
		tab, err = s.fill(key, b)
	}
	if err != nil {
		s.add(&s.peerErrs)
	}
	return tab
}

// fill stores a received envelope (a peer fetch's or a replica's) in
// both local tiers once decodeEnvelope accepts it: written to the disk
// tier verbatim — so the file is byte-identical to the one on the node
// that produced it; a failed write is counted, and the table still
// serves from memory — and inserted into the memory tier.
func (s *Store) fill(key string, b []byte) (*stats.Table, error) {
	tab, err := decodeEnvelope(key, b)
	if err != nil {
		return nil, err
	}
	if s.dir != "" {
		if err := s.writeFileAtomic(key, b); err != nil {
			s.add(&s.diskErrs)
		}
	}
	s.mu.Lock()
	s.insertLocked(key, tab)
	s.mu.Unlock()
	return tab, nil
}

// Envelope returns the raw stored-result envelope for key from the
// local tiers only: the on-disk file verbatim when present, otherwise an
// envelope encoded around the memory-tier table. It backs the
// peer-fetch endpoint, so it deliberately never consults peers itself.
func (s *Store) Envelope(key string) ([]byte, bool) {
	if !validKey(key) {
		return nil, false
	}
	if s.dir != "" {
		if b, err := os.ReadFile(s.path(key)); err == nil {
			return b, true
		}
	}
	s.mu.Lock()
	el, ok := s.byKey[key]
	var tab *stats.Table
	if ok {
		tab = el.Value.(*storeEntry).tab
	}
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	b, err := encodeEnvelope(key, Request{}, tab)
	return b, err == nil
}

// PutEnvelope stores a raw stored-result envelope under key (fill): it
// backs the cluster's result replication (PUT /v1/store/{key}), and
// content-addressing makes it naturally idempotent.
func (s *Store) PutEnvelope(key string, b []byte) error {
	if !validKey(key) {
		return fmt.Errorf("service: refusing to store malformed key %q", key)
	}
	_, err := s.fill(key, b)
	return err
}

// Put stores the table under key in both tiers. Callers must not mutate
// the table afterwards.
func (s *Store) Put(key string, req Request, tab *stats.Table) error {
	if !validKey(key) {
		return fmt.Errorf("service: refusing to store malformed key %q", key)
	}
	var diskErr error
	if s.dir != "" {
		diskErr = s.persist(key, req, tab)
	}
	s.mu.Lock()
	s.insertLocked(key, tab)
	s.mu.Unlock()
	return diskErr
}

// insertLocked adds or refreshes the memory-tier entry and evicts beyond
// capacity. Evicted tables remain readable through the disk tier.
func (s *Store) insertLocked(key string, tab *stats.Table) {
	if el, ok := s.byKey[key]; ok {
		el.Value.(*storeEntry).tab = tab
		s.ll.MoveToFront(el)
		return
	}
	s.byKey[key] = s.ll.PushFront(&storeEntry{key: key, tab: tab})
	for s.ll.Len() > s.cap {
		back := s.ll.Back()
		s.ll.Remove(back)
		delete(s.byKey, back.Value.(*storeEntry).key)
	}
}

// Len returns the number of memory-tier entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}

// Stats returns cumulative (hits, misses).
func (s *Store) Stats() (hits, misses int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses
}

// DiskErrors returns the cumulative count of disk-tier failures: persist
// errors plus load-side read failures and corrupt files (which are
// served as misses but must not be invisible to operators).
func (s *Store) DiskErrors() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.diskErrs
}

// SetFaults installs the fault-injection hook fired inside persist
// ("store.persist") and load ("store.load"); chaos tests only.
func (s *Store) SetFaults(f FaultPoints) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.faults = f
}

func (s *Store) fire(point string) error {
	s.mu.Lock()
	f := s.faults
	s.mu.Unlock()
	if f == nil {
		return nil
	}
	return f.Fire(point)
}

// add bumps one of the store's counters.
func (s *Store) add(n *int64) {
	s.mu.Lock()
	*n++
	s.mu.Unlock()
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+".json")
}

// validKey rejects anything but the hex hashes Request.Key produces, so
// a store key can never traverse outside the store directory.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	return strings.IndexFunc(key, func(r rune) bool {
		return !(r >= '0' && r <= '9' || r >= 'a' && r <= 'f')
	}) < 0
}

// errStaleVersion marks an envelope written under another SimVersion.
var errStaleVersion = errors.New("service: envelope from another SimVersion")

// decodeEnvelope is the one envelope check, for the disk tier, the peer
// fill and replication alike: b must decode to an envelope of the
// current SimVersion, for key, holding a table. Each caller counts a
// failure its own way.
func decodeEnvelope(key string, b []byte) (*stats.Table, error) {
	var sr storedResult
	if err := json.Unmarshal(b, &sr); err != nil {
		return nil, fmt.Errorf("service: bad envelope for %q: %w", key, err)
	}
	if sr.Version != SimVersion {
		return nil, fmt.Errorf("%w: %q for %q", errStaleVersion, sr.Version, key)
	}
	if sr.Key != key || sr.Table == nil {
		return nil, fmt.Errorf("service: envelope for %q fails validation (key %q, table %t)", key, sr.Key, sr.Table != nil)
	}
	return sr.Table, nil
}

// encodeEnvelope is the one envelope encoder: the bytes of a result file
// and of the peer-fetch wire format.
func encodeEnvelope(key string, req Request, tab *stats.Table) ([]byte, error) {
	b, err := json.MarshalIndent(storedResult{Version: SimVersion, Key: key, Request: req, Table: tab}, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// load reads one result from the disk tier; nil on any miss. Read
// errors and envelopes decodeEnvelope rejects are counted in DiskErrors
// (a corrupt file is served as a miss, not a failure), except a version
// mismatch, which is expected after a SimVersion bump. Callers have
// already validated the key.
func (s *Store) load(key string) *stats.Table {
	if s.dir == "" {
		return nil
	}
	if err := s.fire("store.load"); err != nil {
		s.add(&s.diskErrs)
		return nil
	}
	b, err := os.ReadFile(s.path(key))
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			s.add(&s.diskErrs)
		}
		return nil
	}
	tab, err := decodeEnvelope(key, b)
	if err != nil && !errors.Is(err, errStaleVersion) {
		s.add(&s.diskErrs)
	}
	return tab
}

// persist writes one result file atomically and durably: the temp file
// is fsync'd before the rename and the directory after it, so a result
// acknowledged as stored survives power loss. Callers have already
// validated the key; persist failures are counted in DiskErrors.
func (s *Store) persist(key string, req Request, tab *stats.Table) (err error) {
	defer func() {
		if err != nil {
			s.add(&s.diskErrs)
		}
	}()
	if err := s.fire("store.persist"); err != nil {
		return err
	}
	b, err := encodeEnvelope(key, req, tab)
	if err != nil {
		return err
	}
	return s.writeFileAtomic(key, b)
}

// writeFileAtomic writes b to the key's result file atomically and
// durably (wal.WriteFile: temp file, fsync, rename, directory fsync).
func (s *Store) writeFileAtomic(key string, b []byte) error {
	return wal.WriteFile(s.path(key), func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	})
}
