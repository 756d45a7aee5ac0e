package mem

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCacheHitAfterFill(t *testing.T) {
	c := NewCache("L1", 32<<10, 8, 5)
	if c.Access(0x1000) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Fatal("second access missed")
	}
	if !c.Access(0x103F) { // same 64B line
		t.Fatal("same-line access missed")
	}
	if c.Access(0x1040) { // next line
		t.Fatal("next-line access hit")
	}
	if c.Hits() != 2 || c.Misses() != 2 {
		t.Fatalf("hits=%d misses=%d, want 2/2", c.Hits(), c.Misses())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way, 2-set tiny cache: 4 lines of 64B = 256B.
	c := NewCache("tiny", 256, 2, 1)
	// Three distinct lines mapping to the same set (stride = sets*64 = 128).
	a, b, d := int64(0), int64(128), int64(256)
	c.Access(a)
	c.Access(b)
	c.Access(a) // touch a so b is LRU
	c.Access(d) // evicts b
	if !c.Contains(a) {
		t.Fatal("a evicted despite being MRU")
	}
	if c.Contains(b) {
		t.Fatal("b not evicted")
	}
	if !c.Contains(d) {
		t.Fatal("d not filled")
	}
}

func TestCacheContainsDoesNotMutate(t *testing.T) {
	c := NewCache("x", 256, 2, 1)
	if c.Contains(0) {
		t.Fatal("empty cache contains line")
	}
	if c.Hits()+c.Misses() != 0 {
		t.Fatal("Contains counted stats")
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewHierarchy(SkylakeHierarchy())
	addr := int64(0x123440)
	if lat := h.LoadLatency(addr); lat != h.DRAMLatency {
		t.Fatalf("cold load latency = %d, want DRAM %d", lat, h.DRAMLatency)
	}
	if lat := h.LoadLatency(addr); lat != h.L1D.Latency() {
		t.Fatalf("warm load latency = %d, want L1 %d", lat, h.L1D.Latency())
	}
}

func TestHierarchyInclusiveFillPath(t *testing.T) {
	h := NewHierarchy(SkylakeHierarchy())
	addr := int64(0x40000)
	h.LoadLatency(addr) // fills all levels
	if !h.L1D.Contains(addr) || !h.L2.Contains(addr) || !h.LLC.Contains(addr) {
		t.Fatal("miss did not fill the hierarchy")
	}
}

// TestL1CapacityEviction: streaming a footprint beyond L1 capacity evicts
// early lines from L1 but leaves them in L2.
func TestL1CapacityEviction(t *testing.T) {
	cfg := SkylakeHierarchy()
	h := NewHierarchy(cfg)
	lines := int64(cfg.L1Size/64) * 2
	for i := int64(0); i < lines; i++ {
		h.LoadLatency(i * 64)
	}
	if lat := h.LoadLatency(0); lat != cfg.L2Lat {
		t.Fatalf("latency after L1 overflow = %d, want L2 %d", lat, cfg.L2Lat)
	}
}

func TestStoreCommitFills(t *testing.T) {
	h := NewHierarchy(SkylakeHierarchy())
	addr := int64(0x9000)
	h.StoreCommit(addr)
	if lat := h.LoadLatency(addr); lat != h.L1D.Latency() {
		t.Fatalf("load after store latency = %d, want L1", lat)
	}
}

// lruRef is a reference model of an LRU cache: each way holds a tag and a
// last-use stamp, a hit restamps its way, and a miss fills the way with
// the lowest stamp (the first such way; an empty way has stamp 0).
type lruRef struct {
	sets, ways int
	tags, lru  []uint64
	stamp      uint64
}

func newLRURef(sizeBytes, ways int) *lruRef {
	sets := max(sizeBytes/64/ways, 1)
	return &lruRef{sets: sets, ways: ways, tags: make([]uint64, sets*ways), lru: make([]uint64, sets*ways)}
}

func (r *lruRef) access(addr int64) bool {
	line := uint64(addr) >> 6
	base := int(line%uint64(r.sets)) * r.ways
	r.stamp++
	for w := 0; w < r.ways; w++ {
		if r.tags[base+w] == line+1 {
			r.lru[base+w] = r.stamp
			return true
		}
	}
	victim := base
	for w := 1; w < r.ways; w++ {
		if r.lru[base+w] < r.lru[victim] {
			victim = base + w
		}
	}
	r.tags[victim], r.lru[victim] = line+1, r.stamp
	return false
}

func (r *lruRef) clone() *lruRef {
	c := *r
	c.tags = append([]uint64(nil), r.tags...)
	c.lru = append([]uint64(nil), r.lru...)
	return &c
}

// cacheGeometries are the geometries the cache is checked against the
// reference in: one set of one way, 2 sets of 2 ways, the L1's 64 sets of
// 8 ways, 16-way sets, and a set count that is not a power of two.
var cacheGeometries = []struct{ size, ways int }{
	{64, 1}, {256, 2}, {32 << 10, 8}, {4 << 10, 16}, {3 * 4 * 64, 4},
}

// checkAgainstRef drives c and ref with addrs and fails at the first
// access where they disagree on hit or miss.
func checkAgainstRef(t *testing.T, name string, c *Cache, ref *lruRef, addrs []int64) {
	t.Helper()
	for i, a := range addrs {
		if got, want := c.Access(a), ref.access(a); got != want {
			t.Fatalf("%s: access %d (%#x): hit %v, the LRU reference %v", name, i, a, got, want)
		}
	}
}

// TestCacheDeterministic checks the cache against lruRef, hit or miss on
// every access, in every geometry of cacheGeometries: on random streams
// (property-based), on cyclic streams of ways+1 lines of one set, which
// evict on every access under LRU, and on a clone driven apart from its
// original.
func TestCacheDeterministic(t *testing.T) {
	for _, g := range cacheGeometries {
		name := fmt.Sprintf("%dB/%d-way", g.size, g.ways)
		sets := max(g.size/64/g.ways, 1)
		f := func(seeds []uint16) bool {
			c, ref := NewCache("c", g.size, g.ways, 1), newLRURef(g.size, g.ways)
			for _, s := range seeds {
				// A few sets' worth of lines, so sets fill and evict.
				a := int64(s%uint16(4*sets*g.ways)) * 64
				if c.Access(a) != ref.access(a) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		var cyclic []int64
		for round := 0; round < 4; round++ {
			for i := 0; i <= g.ways; i++ {
				cyclic = append(cyclic, int64(i*sets*64+8))
			}
		}
		c, ref := NewCache("c", g.size, g.ways, 1), newLRURef(g.size, g.ways)
		checkAgainstRef(t, name+" cyclic", c, ref, cyclic)
		if c.Hits() != 0 {
			t.Fatalf("%s: cyclic stream of ways+1 lines hit %d times under LRU", name, c.Hits())
		}

		// A clone and its original stay independent.
		rng := rand.New(rand.NewSource(int64(g.size + g.ways)))
		stream := func(n int) []int64 {
			out := make([]int64, n)
			for i := range out {
				out[i] = rng.Int63n(int64(4*sets*g.ways)) * 64
			}
			return out
		}
		c, ref = NewCache("c", g.size, g.ways, 1), newLRURef(g.size, g.ways)
		checkAgainstRef(t, name+" before the clone", c, ref, stream(500))
		cc, cref := c.Clone(), ref.clone()
		checkAgainstRef(t, name+" original", c, ref, stream(500))
		checkAgainstRef(t, name+" clone", cc, cref, stream(500))
		checkAgainstRef(t, name+" original again", c, ref, stream(500))
	}
}

func TestTinyCacheClamp(t *testing.T) {
	c := NewCache("sub-line", 32, 1, 1) // smaller than one line per way
	c.Access(0)
	if !c.Contains(0) {
		t.Fatal("single-set fallback broken")
	}
}
