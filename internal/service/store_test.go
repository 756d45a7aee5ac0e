package service

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"acb/internal/faultinject"
	"acb/internal/stats"
)

func testKey(b byte) string {
	return strings.Repeat(string([]byte{'a' + b%6}), 64)
}

func testTable(name string) *stats.Table {
	t := stats.NewTable("k", "v")
	t.AddRow(name, 1.5)
	return t
}

func TestStoreLRUEviction(t *testing.T) {
	s, err := NewStore(2, "")
	if err != nil {
		t.Fatal(err)
	}
	k0, k1, k2 := testKey(0), testKey(1), testKey(2)
	s.Put(k0, Request{}, testTable("t0"))
	s.Put(k1, Request{}, testTable("t1"))
	if _, ok := s.Get(k0); !ok { // touch k0: k1 becomes LRU
		t.Fatal("k0 missing")
	}
	s.Put(k2, Request{}, testTable("t2"))
	if _, ok := s.Get(k1); ok {
		t.Fatal("k1 survived eviction past capacity")
	}
	if _, ok := s.Get(k0); !ok {
		t.Fatal("recently-used k0 was evicted")
	}
	if s.Len() != 2 {
		t.Fatalf("len = %d, want 2", s.Len())
	}
	hits, misses := s.Stats()
	if hits != 2 || misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 2/1", hits, misses)
	}
}

// TestStoreDiskTier: entries evicted from memory — and entries written by
// an earlier store instance — are served from disk; corrupt or
// wrong-version files are misses, not failures.
func TestStoreDiskTier(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	k0, k1 := testKey(0), testKey(1)
	tab := testTable("persisted")
	if err := s.Put(k0, Request{Experiment: "fig6"}, tab); err != nil {
		t.Fatal(err)
	}
	s.Put(k1, Request{}, testTable("evictor")) // evicts k0 from memory

	got, ok := s.Get(k0)
	if !ok {
		t.Fatal("disk tier miss after memory eviction")
	}
	if got.String() != tab.String() {
		t.Fatalf("disk round trip changed the table:\n%s\nvs\n%s", got.String(), tab.String())
	}

	// A fresh store over the same directory starts warm.
	s2, err := NewStore(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(k0); !ok {
		t.Fatal("restart lost the persisted result")
	}

	// Corrupt file: miss, not error.
	bad := testKey(3)
	if err := os.WriteFile(filepath.Join(dir, bad+".json"), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(bad); ok {
		t.Fatal("corrupt file served as a result")
	}

	// Version mismatch: miss.
	stale := testKey(4)
	b, _ := json.Marshal(storedResult{Version: "acb-sim/0", Key: stale, Table: testTable("old")})
	if err := os.WriteFile(filepath.Join(dir, stale+".json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(stale); ok {
		t.Fatal("stale-version file served as a result")
	}
}

// TestStoreDiskErrors: corrupt files and injected persist/load failures
// are counted so operators can see a sick disk tier, while an expected
// version mismatch after a SimVersion bump is not.
func TestStoreDiskErrors(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(4, dir)
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt file: served as a miss, counted as a disk error.
	bad := testKey(0)
	if err := os.WriteFile(filepath.Join(dir, bad+".json"), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(bad); ok {
		t.Fatal("corrupt file served")
	}
	if got := s.DiskErrors(); got != 1 {
		t.Fatalf("disk errors after corrupt load = %d, want 1", got)
	}

	// Version mismatch: an expected miss after a key-scheme bump, NOT an
	// error.
	stale := testKey(1)
	b, _ := json.Marshal(storedResult{Version: "acb-sim/0", Key: stale, Table: testTable("old")})
	if err := os.WriteFile(filepath.Join(dir, stale+".json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(stale); ok {
		t.Fatal("stale-version file served")
	}
	if got := s.DiskErrors(); got != 1 {
		t.Fatalf("disk errors after version-mismatch load = %d, want 1 (mismatch must not count)", got)
	}

	// Current-version envelope with no table: corruption, counted.
	empty := testKey(2)
	b, _ = json.Marshal(storedResult{Version: SimVersion, Key: empty})
	if err := os.WriteFile(filepath.Join(dir, empty+".json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(empty); ok {
		t.Fatal("tableless file served")
	}
	if got := s.DiskErrors(); got != 2 {
		t.Fatalf("disk errors after tableless load = %d, want 2", got)
	}

	// Injected persist failure: Put reports it and it is counted.
	inj := faultinject.New(1)
	inj.Set("store.persist", faultinject.Rule{Nth: 1, Limit: 1})
	s.SetFaults(inj)
	if err := s.Put(testKey(3), Request{Experiment: "table1"}, testTable("doomed")); !faultinject.IsInjected(err) {
		t.Fatalf("Put under injected persist fault returned %v, want injected error", err)
	}
	if got := s.DiskErrors(); got != 3 {
		t.Fatalf("disk errors after injected persist = %d, want 3", got)
	}
	// The injection budget (limit=1) is spent: the same Put now succeeds
	// and the result is durable.
	if err := s.Put(testKey(3), Request{Experiment: "table1"}, testTable("saved")); err != nil {
		t.Fatalf("Put after fault budget spent: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, testKey(3)+".json")); err != nil {
		t.Fatalf("result not persisted after retry: %v", err)
	}

	// Injected load failure: served as a miss, counted.
	inj.Set("store.load", faultinject.Rule{Nth: 1, Limit: 1})
	s2, err := NewStore(4, dir) // cold memory tier, forces a disk load
	if err != nil {
		t.Fatal(err)
	}
	s2.SetFaults(inj)
	if _, ok := s2.Get(testKey(3)); ok {
		t.Fatal("injected load fault did not miss")
	}
	if got := s2.DiskErrors(); got != 1 {
		t.Fatalf("disk errors after injected load = %d, want 1", got)
	}
	if _, ok := s2.Get(testKey(3)); !ok {
		t.Fatal("load failed after fault budget spent")
	}

	// A current-version file that names another key: corruption, counted.
	misfiled := testKey(4)
	b, _ = json.Marshal(storedResult{Version: SimVersion, Key: testKey(5), Table: testTable("elsewhere")})
	if err := os.WriteFile(filepath.Join(dir, misfiled+".json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(misfiled); ok {
		t.Fatal("misfiled envelope served")
	}
	if got := s2.DiskErrors(); got != 2 {
		t.Fatalf("disk errors after misfiled load = %d, want 2", got)
	}
}

// TestStoreRejectsMalformedKeys: only 64-hex-char keys reach the
// filesystem, so API-supplied keys cannot traverse out of the store dir.
func TestStoreRejectsMalformedKeys(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "short", "../../etc/passwd", strings.Repeat("Z", 64)} {
		if _, ok := s.Get(key); ok {
			t.Fatalf("Get(%q) hit", key)
		}
		if err := s.Put(key, Request{}, testTable("x")); err == nil {
			t.Fatalf("Put(%q) persisted", key)
		}
	}
}

// TestRequestKeyCanonical: equivalent requests share a key; different
// work gets different keys.
func TestRequestKeyCanonical(t *testing.T) {
	base := Request{Experiment: "fig6", Workloads: []string{"lammps"}, Budget: 1000, Config: "skylake"}
	k1, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}
	alias := Request{Experiment: "fig6", Workloads: []string{"lammps"}, Budget: 1000, Config: "skylake-1x"}
	k2, err := alias.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("config alias changed the key")
	}
	if !validKey(k1) {
		t.Fatalf("key %q is not a 64-hex-char hash", k1)
	}

	for _, other := range []Request{
		{Experiment: "fig7", Workloads: []string{"lammps"}, Budget: 1000},
		{Experiment: "fig6", Workloads: []string{"gobmk"}, Budget: 1000},
		{Experiment: "fig6", Workloads: []string{"lammps"}, Budget: 2000},
		{Experiment: "fig6", Workloads: []string{"lammps"}, Budget: 1000, Config: "future"},
		{Experiment: "fig6", Workloads: []string{"lammps"}, Budget: 1000, Seed: 7},
	} {
		k, err := other.Key()
		if err != nil {
			t.Fatal(err)
		}
		if k == k1 {
			t.Fatalf("distinct request %+v collided with base key", other)
		}
	}

	// Defaulted budget is canonical with the explicit default.
	d1 := Request{Experiment: "table1"}
	d2 := Request{Experiment: "table1", Budget: DefaultBudget}
	ka, _ := d1.Key()
	kb, _ := d2.Key()
	if ka != kb {
		t.Fatal("default budget is not canonical")
	}
}

func TestRequestKeyRejectsJunk(t *testing.T) {
	for _, req := range []Request{
		{Experiment: "nope"},
		{Experiment: "fig6", Workloads: []string{"nope"}},
		{Experiment: "fig6", Config: "nope"},
		{Experiment: "fig6", Budget: -1},
	} {
		if _, err := req.Key(); err == nil {
			t.Fatalf("Key accepted %+v", req)
		}
	}
}
