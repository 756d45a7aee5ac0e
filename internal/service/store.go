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
// tab/ok.
type peerCall struct {
	done chan struct{}
	tab  *stats.Table
	ok   bool
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

// Get returns the table stored under key. A miss in memory falls through
// to the disk tier and promotes the loaded table; a miss there falls
// through to the peer tier (when configured) and fills both local tiers
// on a hit. Only a miss in every tier counts as a miss. Keys that are
// not 64-hex-char hashes (i.e. not produced by Request.Key) always miss.
func (s *Store) Get(key string) (*stats.Table, bool) {
	if !validKey(key) {
		s.mu.Lock()
		s.misses++
		s.mu.Unlock()
		return nil, false
	}
	s.mu.Lock()
	if el, ok := s.byKey[key]; ok {
		s.ll.MoveToFront(el)
		s.hits++
		tab := el.Value.(*storeEntry).tab
		s.mu.Unlock()
		return tab, true
	}
	s.mu.Unlock()

	if tab := s.load(key); tab != nil {
		s.mu.Lock()
		s.hits++
		s.insertLocked(key, tab)
		s.mu.Unlock()
		return tab, true
	}

	if tab, ok := s.peerGet(key); ok {
		s.mu.Lock()
		s.hits++
		s.mu.Unlock()
		return tab, true
	}

	s.mu.Lock()
	s.misses++
	s.mu.Unlock()
	return nil, false
}

// GetLocal is Get restricted to the memory and disk tiers: it never
// consults peers. The peer-envelope endpoint serves through it, so two
// shards can never chase each other in a fetch loop for a key neither
// owns.
func (s *Store) GetLocal(key string) (*stats.Table, bool) {
	if !validKey(key) {
		s.mu.Lock()
		s.misses++
		s.mu.Unlock()
		return nil, false
	}
	s.mu.Lock()
	if el, ok := s.byKey[key]; ok {
		s.ll.MoveToFront(el)
		s.hits++
		tab := el.Value.(*storeEntry).tab
		s.mu.Unlock()
		return tab, true
	}
	s.mu.Unlock()
	if tab := s.load(key); tab != nil {
		s.mu.Lock()
		s.hits++
		s.insertLocked(key, tab)
		s.mu.Unlock()
		return tab, true
	}
	s.mu.Lock()
	s.misses++
	s.mu.Unlock()
	return nil, false
}

// peerGet consults the peer tier for key, single-flighting concurrent
// fetches: the first reader performs the RPC while latecomers wait for
// its outcome, so a stampede on one key costs one fetch. A hit fills the
// memory tier (and, inside fetchFromPeer, the disk tier).
func (s *Store) peerGet(key string) (*stats.Table, bool) {
	s.mu.Lock()
	fetch, timeout := s.peerFetch, s.peerTimeout
	if fetch == nil {
		s.mu.Unlock()
		return nil, false
	}
	if c, ok := s.peerCalls[key]; ok {
		s.mu.Unlock()
		<-c.done
		return c.tab, c.ok
	}
	c := &peerCall{done: make(chan struct{})}
	s.peerCalls[key] = c
	s.mu.Unlock()

	tab, ok := s.fetchFromPeer(fetch, timeout, key)

	s.mu.Lock()
	c.tab, c.ok = tab, ok
	delete(s.peerCalls, key)
	if ok {
		s.peerHits++
		s.insertLocked(key, tab)
	}
	s.mu.Unlock()
	close(c.done)
	return tab, ok
}

// fetchFromPeer performs one peer fetch under the peer deadline and
// validates the returned envelope: version, key and table must all
// check out, or the response is counted as a peer error and served as a
// miss. A valid envelope is written through to the disk tier verbatim,
// so a peer-filled replica file is byte-identical to the owner's.
func (s *Store) fetchFromPeer(fetch PeerFetchFunc, timeout time.Duration, key string) (*stats.Table, bool) {
	if err := s.fire("store.peer"); err != nil {
		s.countPeerErr()
		return nil, false
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	b, err := fetch(ctx, key)
	if err != nil {
		s.countPeerErr()
		return nil, false
	}
	if b == nil {
		return nil, false // authoritative miss: the owner has no such key
	}
	var sr storedResult
	if err := json.Unmarshal(b, &sr); err != nil ||
		sr.Version != SimVersion || sr.Key != key || sr.Table == nil {
		s.countPeerErr()
		return nil, false
	}
	if s.dir != "" {
		if err := s.writeFileAtomic(key, b); err != nil {
			s.countDiskErr() // fill failure: result still served from memory
		}
	}
	return sr.Table, true
}

// Envelope returns the raw stored-result envelope for key from the
// local tiers only: the on-disk file verbatim when present, otherwise an
// envelope reconstructed around the memory-tier table. It backs the
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
	b, err := json.MarshalIndent(storedResult{Version: SimVersion, Key: key, Table: tab}, "", "  ")
	if err != nil {
		return nil, false
	}
	return append(b, '\n'), true
}

// PutEnvelope stores a raw stored-result envelope under key: validated
// like a peer fetch (version, key and table must check out), written to
// the disk tier verbatim — so a replicated file is byte-identical to
// the one on the node that produced it — and decoded into the memory
// tier. It backs the cluster's result replication (PUT /v1/store/{key});
// content-addressing makes it naturally idempotent.
func (s *Store) PutEnvelope(key string, b []byte) error {
	if !validKey(key) {
		return fmt.Errorf("service: refusing to store malformed key %q", key)
	}
	var sr storedResult
	if err := json.Unmarshal(b, &sr); err != nil {
		return fmt.Errorf("service: bad envelope for %q: %w", key, err)
	}
	if sr.Version != SimVersion || sr.Key != key || sr.Table == nil {
		return fmt.Errorf("service: envelope for %q fails validation (version %q, key %q)", key, sr.Version, sr.Key)
	}
	if s.dir != "" {
		if err := s.writeFileAtomic(key, b); err != nil {
			s.countDiskErr() // fill failure: the replica still serves from memory
		}
	}
	s.mu.Lock()
	s.insertLocked(key, sr.Table)
	s.mu.Unlock()
	return nil
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

func (s *Store) countDiskErr() {
	s.mu.Lock()
	s.diskErrs++
	s.mu.Unlock()
}

func (s *Store) countPeerErr() {
	s.mu.Lock()
	s.peerErrs++
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

// load reads one result from the disk tier; nil on any miss, version
// mismatch, or decode error (a corrupt file is served as a miss, not a
// failure, but read errors and corruption are counted in DiskErrors —
// a version mismatch is expected after a SimVersion bump and is not).
// Callers have already validated the key.
func (s *Store) load(key string) *stats.Table {
	if s.dir == "" {
		return nil
	}
	if err := s.fire("store.load"); err != nil {
		s.countDiskErr()
		return nil
	}
	b, err := os.ReadFile(s.path(key))
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			s.countDiskErr()
		}
		return nil
	}
	var sr storedResult
	if err := json.Unmarshal(b, &sr); err != nil || (sr.Version == SimVersion && sr.Table == nil) {
		s.countDiskErr()
		return nil
	}
	if sr.Version != SimVersion {
		return nil
	}
	return sr.Table
}

// persist writes one result file atomically and durably: the temp file
// is fsync'd before the rename and the directory after it, so a result
// acknowledged as stored survives power loss. Callers have already
// validated the key; persist failures are counted in DiskErrors.
func (s *Store) persist(key string, req Request, tab *stats.Table) (err error) {
	defer func() {
		if err != nil {
			s.countDiskErr()
		}
	}()
	if err := s.fire("store.persist"); err != nil {
		return err
	}
	b, err := json.MarshalIndent(storedResult{
		Version: SimVersion,
		Key:     key,
		Request: req,
		Table:   tab,
	}, "", "  ")
	if err != nil {
		return err
	}
	return s.writeFileAtomic(key, append(b, '\n'))
}

// writeFileAtomic writes b to the key's result file atomically and
// durably (wal.WriteFile: temp file, fsync, rename, directory fsync).
func (s *Store) writeFileAtomic(key string, b []byte) error {
	return wal.WriteFile(s.path(key), func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	})
}
