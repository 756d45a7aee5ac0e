// Package mem models the data-side memory hierarchy: set-associative
// write-back caches with LRU replacement (L1D, L2, LLC) in front of a
// fixed-latency DRAM. The timing model is intentionally simple — loads
// receive a latency from the hierarchy on dispatch, stores fill on commit —
// but it produces the phenomenon the paper's criticality analysis needs:
// long-latency LLC-missing loads that dominate the critical path and
// shadow branch mispredictions (Sec. II-A, the soplex effect).
package mem

// Cache is one set-associative, LRU, write-allocate cache level.
type Cache struct {
	name     string
	sets     int
	setMask  uint64 // sets-1 when sets is a power of two, else 0
	ways     int
	lineBits uint
	latency  int

	// tags holds sets*ways entries, each set's tags in recency order
	// (most recent first). Tag 0 means empty (tags are stored +1); empty
	// ways always trail the filled ones, so a miss that drops the set's
	// last tag drops an empty way if there is one, and otherwise the
	// least recently used tag.
	tags []uint64

	hits   int64
	misses int64
}

// NewCache returns a cache with sizeBytes capacity, the given
// associativity, 64-byte lines and hit latency in cycles.
func NewCache(name string, sizeBytes, ways, latency int) *Cache {
	const lineBytes = 64
	sets := sizeBytes / lineBytes / ways
	if sets < 1 {
		sets = 1
	}
	c := &Cache{
		name:     name,
		sets:     sets,
		ways:     ways,
		lineBits: 6,
		latency:  latency,
		tags:     make([]uint64, sets*ways),
	}
	if sets&(sets-1) == 0 {
		c.setMask = uint64(sets - 1)
	}
	return c
}

// Name returns the cache level's name.
func (c *Cache) Name() string { return c.name }

// Latency returns the hit latency of this level.
func (c *Cache) Latency() int { return c.latency }

// Hits returns the number of hits recorded.
func (c *Cache) Hits() int64 { return c.hits }

// Misses returns the number of misses recorded.
func (c *Cache) Misses() int64 { return c.misses }

// set returns the tags of the set holding line, in recency order.
func (c *Cache) set(line uint64) []uint64 {
	set := int(line & c.setMask)
	if c.setMask == 0 && c.sets > 1 {
		set = int(line % uint64(c.sets))
	}
	base := set * c.ways
	return c.tags[base : base+c.ways]
}

// Access probes the cache for the line containing addr and fills it on a
// miss; it returns true on hit. A hit moves the line's tag to the front of
// its set; a miss shifts the set back by one, dropping its last tag, and
// puts the new tag in front.
func (c *Cache) Access(addr int64) bool {
	line := uint64(addr) >> c.lineBits
	tag := line + 1 // avoid the zero (empty) encoding
	set := c.set(line)
	for w, t := range set {
		if t == tag {
			c.hits++
			for ; w > 0; w-- {
				set[w] = set[w-1]
			}
			set[0] = tag
			return true
		}
	}
	c.misses++
	for w := len(set) - 1; w > 0; w-- {
		set[w] = set[w-1]
	}
	set[0] = tag
	return false
}

// Contains probes without updating any state (for tests).
func (c *Cache) Contains(addr int64) bool {
	line := uint64(addr) >> c.lineBits
	for _, t := range c.set(line) {
		if t == line+1 {
			return true
		}
	}
	return false
}

// Hierarchy is a three-level cache hierarchy over DRAM.
type Hierarchy struct {
	L1D *Cache
	L2  *Cache
	LLC *Cache
	// DRAMLatency is the total load-to-use latency of a memory access
	// that misses all levels.
	DRAMLatency int
}

// HierarchyConfig sizes the hierarchy.
type HierarchyConfig struct {
	L1Size, L1Ways, L1Lat    int
	L2Size, L2Ways, L2Lat    int
	LLCSize, LLCWays, LLCLat int
	DRAMLatency              int
}

// SkylakeHierarchy returns latencies and sizes similar to the paper's
// Skylake-like baseline (Table II): 32K/8w L1D (5 cyc), 256K/8w L2
// (15 cyc), 8M/16w LLC (40 cyc), ~200-cycle DRAM.
func SkylakeHierarchy() HierarchyConfig {
	return HierarchyConfig{
		L1Size: 32 << 10, L1Ways: 8, L1Lat: 5,
		L2Size: 256 << 10, L2Ways: 8, L2Lat: 15,
		LLCSize: 8 << 20, LLCWays: 16, LLCLat: 40,
		DRAMLatency: 200,
	}
}

// NewHierarchy builds the hierarchy from a config.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return &Hierarchy{
		L1D:         NewCache("L1D", cfg.L1Size, cfg.L1Ways, cfg.L1Lat),
		L2:          NewCache("L2", cfg.L2Size, cfg.L2Ways, cfg.L2Lat),
		LLC:         NewCache("LLC", cfg.LLCSize, cfg.LLCWays, cfg.LLCLat),
		DRAMLatency: cfg.DRAMLatency,
	}
}

// LoadLatency performs a load access and returns its latency in cycles.
func (h *Hierarchy) LoadLatency(addr int64) int {
	if h.L1D.Access(addr) {
		return h.L1D.Latency()
	}
	if h.L2.Access(addr) {
		return h.L2.Latency()
	}
	if h.LLC.Access(addr) {
		return h.LLC.Latency()
	}
	return h.DRAMLatency
}

// StoreCommit installs the line written by a committing store; stores do
// not stall the pipeline in this model.
func (h *Hierarchy) StoreCommit(addr int64) {
	if h.L1D.Access(addr) {
		return
	}
	if h.L2.Access(addr) {
		return
	}
	h.LLC.Access(addr)
}

// Clone returns an independent deep copy of the cache — tag state, in
// recency order, and counters. Sampled simulation warms one hierarchy
// continuously during functional fast-forward and hands each parallel
// window a clone of the state at its start.
func (c *Cache) Clone() *Cache {
	cp := *c
	cp.tags = append([]uint64(nil), c.tags...)
	return &cp
}

// Clone returns an independent deep copy of the hierarchy.
func (h *Hierarchy) Clone() *Hierarchy {
	return &Hierarchy{
		L1D:         h.L1D.Clone(),
		L2:          h.L2.Clone(),
		LLC:         h.LLC.Clone(),
		DRAMLatency: h.DRAMLatency,
	}
}
