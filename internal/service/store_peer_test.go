package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"acb/internal/faultinject"
)

// ownerEnvelope builds a valid stored-result envelope by running a real
// owner store and reading its Envelope bytes, so the peer-fetch tests
// exercise the exact wire format.
func ownerEnvelope(t *testing.T, key string) []byte {
	t.Helper()
	owner, err := NewStore(4, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.Put(key, Request{Experiment: "table1"}, testTable("owned")); err != nil {
		t.Fatal(err)
	}
	b, ok := owner.Envelope(key)
	if !ok {
		t.Fatal("owner has no envelope for its own key")
	}
	return b
}

// TestStorePeerFetchFillsBothTiers: a local double miss falls through to
// the peer tier; the hit is promoted into memory and the envelope is
// written to disk verbatim, byte-identical to the owner's file.
func TestStorePeerFetchFillsBothTiers(t *testing.T) {
	key := testKey(0)
	env := ownerEnvelope(t, key)
	dir := t.TempDir()
	s, err := NewStore(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	s.SetPeers(func(ctx context.Context, k string) ([]byte, error) {
		calls.Add(1)
		if k != key {
			return nil, nil
		}
		return env, nil
	}, 0)

	tab, ok := s.Get(key)
	if !ok {
		t.Fatal("peer-backed Get missed")
	}
	if tab.String() != testTable("owned").String() {
		t.Fatalf("peer fetch returned wrong table:\n%s", tab.String())
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("peer fetched %d times, want 1", got)
	}
	hits, misses := s.Stats()
	if hits != 1 || misses != 0 {
		t.Fatalf("hits/misses = %d/%d, want 1/0 (peer hit is a hit)", hits, misses)
	}
	if ph, pe := s.PeerStats(); ph != 1 || pe != 0 {
		t.Fatalf("peer hits/errs = %d/%d, want 1/0", ph, pe)
	}

	// Second Get: memory tier, no new peer call.
	if _, ok := s.Get(key); !ok || calls.Load() != 1 {
		t.Fatalf("memory fill failed: ok=%v calls=%d", ok, calls.Load())
	}

	// Disk fill is the owner's envelope verbatim.
	onDisk, err := os.ReadFile(filepath.Join(dir, key+".json"))
	if err != nil {
		t.Fatalf("peer fill did not reach disk: %v", err)
	}
	if !bytes.Equal(onDisk, env) {
		t.Errorf("peer-filled file differs from owner envelope:\n%s\nvs\n%s", onDisk, env)
	}

	// A fresh store over the same dir serves the fill without any peer.
	s2, err := NewStore(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(key); !ok {
		t.Fatal("peer-filled disk entry not served after restart")
	}
}

// TestStorePeerFetchCorruptResponses: garbage bytes, wrong key, wrong
// version and tableless envelopes are all served as misses and counted
// as peer errors; an authoritative (nil, nil) miss is not an error.
func TestStorePeerFetchCorruptResponses(t *testing.T) {
	key := testKey(1)
	mismatched := ownerEnvelope(t, testKey(2)) // valid envelope, wrong key
	staleVersion, _ := json.Marshal(storedResult{Version: "acb-sim/0", Key: key, Table: testTable("old")})
	tableless, _ := json.Marshal(storedResult{Version: SimVersion, Key: key})

	cases := []struct {
		name     string
		body     []byte
		err      error
		wantErrs int64
	}{
		{"transport error", nil, errors.New("boom"), 1},
		{"garbage bytes", []byte("{nope"), nil, 1},
		{"wrong key", mismatched, nil, 1},
		{"stale version", staleVersion, nil, 1},
		{"tableless envelope", tableless, nil, 1},
		{"authoritative miss", nil, nil, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewStore(4, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			s.SetPeers(func(context.Context, string) ([]byte, error) { return tc.body, tc.err }, 0)
			if _, ok := s.Get(key); ok {
				t.Fatal("corrupt peer response served as a result")
			}
			if _, pe := s.PeerStats(); pe != tc.wantErrs {
				t.Fatalf("peer errors = %d, want %d", pe, tc.wantErrs)
			}
			if hits, misses := s.Stats(); hits != 0 || misses != 1 {
				t.Fatalf("hits/misses = %d/%d, want 0/1", hits, misses)
			}
		})
	}
}

// TestStorePeerFetchSlowPeerDeadline: a peer that never answers is cut
// off by the per-fetch deadline and degrades to a local miss instead of
// wedging the reader.
func TestStorePeerFetchSlowPeerDeadline(t *testing.T) {
	s, err := NewStore(4, "")
	if err != nil {
		t.Fatal(err)
	}
	released := make(chan struct{})
	s.SetPeers(func(ctx context.Context, _ string) ([]byte, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-released:
			t.Error("slow peer outlived the fetch deadline")
			return nil, nil
		}
	}, 25*time.Millisecond)
	defer close(released)

	start := time.Now()
	if _, ok := s.Get(testKey(3)); ok {
		t.Fatal("slow peer produced a hit")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Get blocked %s on a slow peer", elapsed)
	}
	if _, pe := s.PeerStats(); pe != 1 {
		t.Fatalf("peer errors = %d, want 1 (deadline counts)", pe)
	}
}

// TestStorePeerFetchSingleFlight: a stampede of concurrent readers for
// one cold key performs exactly one peer fetch, and every reader gets
// the table. Run under -race: this is the cache-fill race test.
func TestStorePeerFetchSingleFlight(t *testing.T) {
	key := testKey(4)
	env := ownerEnvelope(t, key)
	s, err := NewStore(4, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	gate := make(chan struct{})
	s.SetPeers(func(ctx context.Context, _ string) ([]byte, error) {
		calls.Add(1)
		<-gate // hold the fetch open until every reader has piled in
		return env, nil
	}, time.Minute)

	const readers = 32
	var (
		wg      sync.WaitGroup
		started sync.WaitGroup
		misses  atomic.Int64
	)
	wg.Add(readers)
	started.Add(readers)
	for i := 0; i < readers; i++ {
		go func() {
			defer wg.Done()
			started.Done()
			if _, ok := s.Get(key); !ok {
				misses.Add(1)
			}
		}()
	}
	started.Wait()
	// Give the stampede a moment to reach the single-flight wait, then
	// release the one in-flight fetch.
	time.Sleep(10 * time.Millisecond)
	close(gate)
	wg.Wait()

	if got := misses.Load(); got != 0 {
		t.Fatalf("%d readers missed during the fill", got)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("stampede performed %d peer fetches, want 1 (single-flight)", got)
	}
	if ph, pe := s.PeerStats(); ph != 1 || pe != 0 {
		t.Fatalf("peer hits/errs = %d/%d, want 1/0", ph, pe)
	}
}

// TestStorePeerFaultPoint: the store.peer injection point can sever the
// peer tier (partition chaos), and the failure is counted.
func TestStorePeerFaultPoint(t *testing.T) {
	key := testKey(5)
	env := ownerEnvelope(t, key)
	s, err := NewStore(4, "")
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	s.SetPeers(func(context.Context, string) ([]byte, error) {
		calls.Add(1)
		return env, nil
	}, 0)
	inj := faultinject.New(1)
	inj.Set("store.peer", faultinject.Rule{Nth: 1, Limit: 1})
	s.SetFaults(inj)

	if _, ok := s.Get(key); ok {
		t.Fatal("partitioned peer fetch served a result")
	}
	if calls.Load() != 0 {
		t.Fatal("injected partition still reached the peer")
	}
	if _, pe := s.PeerStats(); pe != 1 {
		t.Fatalf("peer errors = %d, want 1", pe)
	}
	// Partition healed (limit=1): the next Get fetches through.
	if _, ok := s.Get(key); !ok {
		t.Fatal("healed peer tier still missing")
	}
}

// TestStoreLookupCountsOnce: Get and GetLocal share one local lookup,
// and every call counts exactly one hit or one miss in Stats, whichever
// tier answers: memory, disk, peer or none. GetLocal never calls the
// peer tier, so a key only a peer holds is a miss to it.
func TestStoreLookupCountsOnce(t *testing.T) {
	memKey, diskKey, peerKey, missKey := testKey(0), testKey(1), testKey(2), testKey(3)
	peerEnv := ownerEnvelope(t, peerKey)
	for _, local := range []bool{false, true} {
		dir := t.TempDir()
		earlier, err := NewStore(4, dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := earlier.Put(diskKey, Request{}, testTable("disk")); err != nil {
			t.Fatal(err)
		}
		s, err := NewStore(4, dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put(memKey, Request{}, testTable("mem")); err != nil {
			t.Fatal(err)
		}
		var calls atomic.Int64
		s.SetPeers(func(_ context.Context, k string) ([]byte, error) {
			calls.Add(1)
			if k == peerKey {
				return peerEnv, nil
			}
			return nil, nil
		}, 0)
		name, lookup := "Get", s.Get
		if local {
			name, lookup = "GetLocal", s.GetLocal
		}
		for _, tc := range []struct {
			tier string
			key  string
			hit  bool
		}{
			{"memory", memKey, true},
			{"disk", diskKey, true},
			{"peer", peerKey, !local},
			{"none", missKey, false},
		} {
			h0, m0 := s.Stats()
			if _, ok := lookup(tc.key); ok != tc.hit {
				t.Errorf("%s on a %s key: hit %v, want %v", name, tc.tier, ok, tc.hit)
			}
			h1, m1 := s.Stats()
			wantH, wantM := int64(0), int64(1)
			if tc.hit {
				wantH, wantM = 1, 0
			}
			if h1-h0 != wantH || m1-m0 != wantM {
				t.Errorf("%s on a %s key counted %d hits, %d misses; want %d, %d", name, tc.tier, h1-h0, m1-m0, wantH, wantM)
			}
		}
		if want := map[bool]int64{false: 2, true: 0}[local]; calls.Load() != want {
			t.Errorf("%s called the peer tier %d times, want %d", name, calls.Load(), want)
		}
	}
}
