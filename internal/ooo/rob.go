package ooo

import (
	"acb/internal/bpu"
	"acb/internal/isa"
)

// maxFreeOnRetire bounds the path-final physical registers a select
// micro-op can release: dedupPhys over {ratT[r], ratN[r], rat0[r]}.
const maxFreeOnRetire = 3

// robEntry is one in-flight instruction (or injected select micro-op).
type robEntry struct {
	valid bool
	seq   int64
	// gen is the ROB-wide allocation generation: unlike seq it never
	// rewinds at a flush, so a completion event tagged with it can detect
	// lazily that its seq was squashed and reallocated (see compRec).
	gen  uint64
	pc   int
	inst *isa.Instruction // nil for injected select micro-ops

	role      Role
	ctx       *ctxState
	pathTaken bool // body: belongs to the taken-direction path
	wrongPath bool

	// Rename state.
	dest     int // destination physical register, -1 if none
	prevPhys int // previous mapping of the destination logical register
	src      [2]int
	nsrc     int
	ratCkpt  [isa.NumRegs]int // RAT checkpoint (control instructions)
	hasCkpt  bool

	// Branch prediction state.
	pred        bpu.Prediction
	hasPred     bool
	predTaken   bool // direction fetch followed
	trueTaken   bool
	trueKnown   bool
	histAtFetch uint64

	// Select micro-op state: the chosen source is selT when the context
	// branch resolves taken, selN otherwise. freeOnRetire[:nFree] lists
	// path-final physical registers that die at the select (a fixed array:
	// allocating a slice per select showed up in the cycle-loop profile).
	selT, selN   int
	selLog       isa.Reg
	freeOnRetire [maxFreeOnRetire]int32
	nFree        uint8

	// Execution state.
	// waitPhys is the physical register a parked IQ entry waits on: set
	// when issue fails only because that register is not ready, it keeps
	// the entry off the issue scan until completeStage wakes it (see
	// park). -1 means the entry is not parked.
	waitPhys  int32
	inIQ      bool
	issued    bool
	done      bool
	doneCycle int64
	result    int64
	hasResult bool

	// Memory state.
	isLoad      bool
	isStore     bool
	addrReady   bool
	effAddr     int64
	storeVal    int64
	invalidated bool // predicated-false-path memory op

	// Branch resolution.
	resolvedTaken bool
	mispredict    bool
	flushed       bool    // this entry already triggered its flush
	robFrac       float64 // ROB-head distance fraction at mispredict detection

	// wrongTok is non-zero when fetch knew this branch was mispredicted
	// (the wrong path begins after it); its flush clears the wrong-path
	// state.
	wrongTok flushToken

	// skipPrevFree suppresses freeing prevPhys at retire (eager-mode path
	// first-writers; the select micro-op frees the forked base register).
	skipPrevFree bool
}

// reset prepares a recycled slot for a fresh allocation. It clears every
// field individually instead of writing a whole zero robEntry: the
// full-struct write memclrs ~300 bytes and runs the GC write barrier over
// every pointer word each allocation, which the cycle-loop profile showed
// as a top cost. Two large fields are deliberately left stale — ratCkpt
// (guarded by hasCkpt) and pred (guarded by hasPred) — their consumers
// never read them unless the guard was set after this reset. The
// exhaustiveness of this list is enforced by a reflection test
// (TestROBResetClearsAllFields).
func (e *robEntry) reset(seq int64, gen uint64) {
	e.valid = true
	e.seq = seq
	e.gen = gen
	e.pc = 0
	e.inst = nil
	e.role = RoleNone
	e.ctx = nil
	e.pathTaken = false
	e.wrongPath = false
	e.dest = -1
	e.prevPhys = -1
	e.src[0] = 0
	e.src[1] = 0
	e.nsrc = 0
	e.hasCkpt = false
	e.hasPred = false
	e.predTaken = false
	e.trueTaken = false
	e.trueKnown = false
	e.histAtFetch = 0
	e.selT = 0
	e.selN = 0
	e.selLog = 0
	e.freeOnRetire = [maxFreeOnRetire]int32{}
	e.nFree = 0
	e.waitPhys = -1
	e.inIQ = false
	e.issued = false
	e.done = false
	e.doneCycle = 0
	e.result = 0
	e.hasResult = false
	e.isLoad = false
	e.isStore = false
	e.addrReady = false
	e.effAddr = 0
	e.storeVal = 0
	e.invalidated = false
	e.resolvedTaken = false
	e.mispredict = false
	e.flushed = false
	e.robFrac = 0
	e.wrongTok = 0
	e.skipPrevFree = false
}

// rob is a ring buffer of in-flight instructions addressed by sequence
// number (slot = seq mod storage size). Storage is rounded up to a power
// of two so the slot computation is a mask, not an int64 division — at()
// runs once per IQ entry per cycle and dominates the issue loop otherwise.
// Occupancy is still bounded by the configured architectural size.
type rob struct {
	entries []robEntry
	mask    int64  // len(entries)-1; len is a power of two
	cap     int    // architectural ROB size (occupancy bound)
	headSeq int64  // oldest live seq
	nextSeq int64  // next seq to allocate
	gen     uint64 // allocation generation; never rewinds (unlike nextSeq)
}

func newROB(size int) *rob {
	n := 1
	for n < size {
		n <<= 1
	}
	return &rob{entries: make([]robEntry, n), mask: int64(n - 1), cap: size}
}

func (r *rob) size() int      { return r.cap }
func (r *rob) occupancy() int { return int(r.nextSeq - r.headSeq) }
func (r *rob) full() bool     { return r.occupancy() >= r.cap }
func (r *rob) empty() bool    { return r.nextSeq == r.headSeq }

// alloc reserves the next entry and returns it, reset.
func (r *rob) alloc() *robEntry {
	e := &r.entries[r.nextSeq&r.mask]
	r.gen++
	e.reset(r.nextSeq, r.gen)
	r.nextSeq++
	return e
}

// at returns the live entry with the given seq, or nil.
func (r *rob) at(seq int64) *robEntry {
	if seq < r.headSeq || seq >= r.nextSeq {
		return nil
	}
	e := &r.entries[seq&r.mask]
	if !e.valid || e.seq != seq {
		return nil
	}
	return e
}

// head returns the oldest live entry, or nil when empty.
func (r *rob) head() *robEntry {
	if r.empty() {
		return nil
	}
	return r.at(r.headSeq)
}

// pop retires the head entry.
func (r *rob) pop() {
	e := r.head()
	e.valid = false
	r.headSeq++
}

// squashAfter invalidates every entry younger than seq and rewinds the
// allocation pointer. It calls fn for each squashed entry, youngest first.
func (r *rob) squashAfter(seq int64, fn func(*robEntry)) {
	for s := r.nextSeq - 1; s > seq; s-- {
		e := &r.entries[s&r.mask]
		if e.valid && e.seq == s {
			fn(e)
			e.valid = false
		}
	}
	r.nextSeq = seq + 1
}
