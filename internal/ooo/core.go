// Package ooo implements a cycle-level out-of-order core simulator with
// value-correct speculative execution: instructions are renamed onto a
// physical register file holding real values, wrong-path instructions are
// fetched and executed with whatever values they see, and pipeline flushes
// restore register-alias-table checkpoints — the substrate the paper's
// evaluation runs on (Sec. IV: "a cycle-accurate simulator that accurately
// models the wrong path on branch mispredictions").
//
// Dynamic-predication schemes (ACB in internal/core, DMP/DHP in
// internal/dmp) plug in through the Scheme interface; the front end then
// dual-fetches selected branch instances up to their reconvergence point
// and the backend applies either ACB's stall-and-register-transparency
// discipline or DMP's eager select-µop discipline.
package ooo

import (
	"context"
	"errors"
	"fmt"

	"acb/internal/bpu"
	"acb/internal/config"
	"acb/internal/isa"
	"acb/internal/mem"
)

// prfEntry is one physical register.
type prfEntry struct {
	val   int64
	ready bool
}

// fetchedInst is one slot in the decoupled fetch queue between the fetch
// engine and rename. A branch's fetch-time global history is its
// pred.Hist (bpu.Prediction.Hist).
type fetchedInst struct {
	pc         int
	inst       *isa.Instruction
	readyCycle int64
	ctx        *ctxState
	ctxClose   *ctxState // set on the first instruction after a context closes
	wrongTok   flushToken
	fetchFlags
	pred bpu.Prediction
}

// fetchFlags are a fetched instruction's one-byte fields, kept together
// so newFetched resets them with one word store.
type fetchFlags struct {
	wrongPath bool
	role      Role
	pathTaken bool // body: belongs to the taken-direction path
	ctxSwitch bool // first instruction of the second fetched path
	hasPred   bool // guards pred
	predTaken bool // direction fetch followed
	trueKnown bool
	trueTaken bool
}

// flushToken identifies the fetch-divergence cause so the flush that
// repairs it can clear the wrong-path state. Tokens are drawn from a
// per-core monotonic counter (newTok); zero means "no token". An integer
// identity avoids a heap allocation per mispredicted fetch.
type flushToken uint64

// selectSpec is a pending select micro-op awaiting an allocation slot.
type selectSpec struct {
	ctx   *ctxState
	log   isa.Reg
	selT  int
	selN  int
	frees [maxFreeOnRetire]int32
	nFree uint8
}

// compRec is one scheduled completion event: the sequence number plus the
// allocation generation it was issued under. Squashed sequence numbers are
// reused after a flush, so a record whose generation no longer matches the
// live entry is stale and is dropped lazily at its bucket's cycle — which
// is what makes flushAfter O(squashed) instead of O(in-flight completions)
// (it used to rebuild the whole completing map).
type compRec struct {
	seq int64
	gen uint64
}

// seqList is an in-order list of in-flight sequence numbers (the LQ/SQ
// program-order lists) with an amortized O(1) front pop that never
// reallocates: popping advances head, and the buffer compacts in place
// once the dead prefix grows. The old `list = list[1:]` idiom leaked the
// front capacity, so every LQSize retires forced a fresh allocation.
type seqList struct {
	buf  []int64
	head int
}

func (l *seqList) len() int      { return len(l.buf) - l.head }
func (l *seqList) live() []int64 { return l.buf[l.head:] }

func (l *seqList) push(s int64) { l.buf = append(l.buf, s) }

// popFrontIf removes s when it is the oldest live element.
func (l *seqList) popFrontIf(s int64) {
	if l.head < len(l.buf) && l.buf[l.head] == s {
		l.head++
		if l.head == len(l.buf) {
			l.buf = l.buf[:0]
			l.head = 0
		} else if l.head >= 32 && l.head*2 >= len(l.buf) {
			n := copy(l.buf, l.buf[l.head:])
			l.buf = l.buf[:n]
			l.head = 0
		}
	}
}

// filter keeps live seqs ≤ limit, preserving order, and re-compacts.
func (l *seqList) filter(limit int64) {
	out := l.buf[:0]
	for _, s := range l.buf[l.head:] {
		if s <= limit {
			out = append(out, s)
		}
	}
	l.buf = out
	l.head = 0
}

// Core is one simulated out-of-order core bound to a program.
type Core struct {
	cfg    config.Core
	prog   []isa.Instruction
	pred   bpu.Predictor
	hier   *mem.Hierarchy
	scheme Scheme

	// rat maps each logical register to its physical register. Its
	// entries are int32, like every RAT copy (ratCkpt, ctxState.rat0 and
	// rat1), which halves the checkpoint every control instruction takes.
	rob      *rob
	rat      [isa.NumRegs]int32
	prf      []prfEntry
	freeList []int

	// commitRat is the retirement (architectural) register map: updated
	// only when instructions retire, so Result.FinalRegs reflects
	// committed state even when the run stops with work in flight.
	commitRat [isa.NumRegs]int

	// iq holds the issue-queue entries the select scan polls, in seq
	// order, as direct entry pointers (ring slots are stable); flushAfter
	// filters it by seq before any squashed slot can be reallocated, so no
	// stale pointer survives into the issue scan. Entries waiting only on
	// one unready physical register are parked instead: waitHead[p] heads
	// the list (in the waitRecs arena, free records chained from waitFree)
	// of those waiting on p, completeStage moves them to woken when p
	// becomes ready, and issueStage merges woken back into iq, writing the
	// survivors to iqSpare and swapping the two. Stall-mode bodies renamed
	// before their branch resolves wait the same way on their context's
	// gate (ctxState.gate), which resolveBranch moves to woken. nParked
	// counts the entries on waiter lists, on gates or in woken; they still
	// hold IQ slots. nGated counts the entries on gates, the sum of the
	// live contexts' gated.
	iq       []*robEntry
	iqSpare  []*robEntry
	waitHead []int32
	waitRecs []waitRec
	waitFree int32
	woken    []waitRec
	nParked  int
	nGated   int
	loads    seqList
	stores   seqList

	// fetchQ is a fixed-capacity ring (head fqHead, length fqLen) of the
	// decoupled fetch queue. The old append/[1:] slice churned an
	// allocation every fetchQCap instructions and copied each 184-byte
	// fetchedInst twice; slots are now written in place.
	fetchQ    []fetchedInst
	fqHead    int
	fqLen     int
	fetchQCap int // architectural capacity (occupancy bound)
	fqMask    int // len(fetchQ)-1; storage is a power of two

	// Fetch engine.
	fetchPC     int
	fetchParked bool
	onWrongPath bool
	wrongTok    flushToken
	tokGen      flushToken
	// The last switch onto the wrong path (branch PC, cycle, cause),
	// which the oracle-desync panics print.
	dbgWrongPC  int
	dbgWrongCyc int64
	dbgWrongWhy string

	// Open predication context walk state.
	ctx          *ctxState
	ctxPhase     int // 1 or 2
	ctxNext      int // next PC to fetch inside the context
	ctxWalkTaken bool
	walk         pathCursor // on the open context's true path
	ctxD2Start   int
	pendingClose *ctxState
	pendingSwtch bool
	ctxIDGen     int64

	liveCtxs []*ctxState

	// Correct path (path.go). cur is the next correct-path instruction
	// fetch expects, pathHalted set once fetch took the correct path's
	// Halt, and snapshots holds cur at each live correct-path context's
	// branch, oldest first. emu runs emuProg ahead of fetch over the
	// program's image and appends the correct path's branch outcomes to
	// outcomes, whose first element is outcome outBase; events is its
	// reused RunEvents batch, and emuDone is set once it halted.
	cur        pathCursor
	pathHalted bool
	snapshots  []pathSnap
	emu        *isa.ArchState
	emuProg    []isa.Instruction
	emuDone    bool
	events     []isa.Event
	outcomes   []bool
	outBase    int64

	// commitMem is the retired (architectural) memory: stores write it at
	// commit, loads read it beneath store-queue forwarding.
	commitMem *isa.Memory

	// pendingSelects is drained from selHead; the backing array is reused
	// once empty instead of sliding with `[1:]`.
	pendingSelects []selectSpec
	selHead        int

	// compRing is a latency calendar: bucket (doneCycle mod len) holds the
	// completion records for that cycle, in issue order until the drain
	// sorts them by seq, so the oldest mispredict still flushes first. Its
	// length exceeds the maximum schedulable latency, so a bucket can
	// never mix two distinct doneCycles. compPending counts records across
	// all buckets (stale ones included) so quiescent-cycle skipping knows
	// whether a completion wake-up exists at all.
	compRing    [][]compRec
	compMask    int64 // len(compRing)-1; storage is a power of two
	compMaxLat  int   // largest schedulable latency (calendar bound)
	compPending int

	// progress is reset each cycle and set by any stage that changes
	// machine state; a cycle that ends with it clear is quiescent and the
	// run loop may jump to the next completion/fetch-ready watermark (see
	// nextEventCycle). stallSlotsThisCycle records the rename stall slots
	// a stalled-but-quiescent cycle repeats, so skipping replays them
	// exactly.
	progress            bool
	stallSlotsThisCycle int64

	cycle    int64
	retired  int64
	haltSeq  int64
	mutation Mutation

	s     runStats
	perPC map[int]*BranchStat
	pipe  *PipeStats
	cpi   *CPIStack
	trace *TraceRing

	epochRetireBase int64
}

// BranchStat aggregates retired-branch behaviour per static branch PC.
type BranchStat struct {
	Count      int64
	Mispredict int64
	Predicated int64
	Diverged   int64
	Taken      int64
}

type runStats struct {
	flushes         int64
	divFlushes      int64
	mispredRetired  int64
	condBranches    int64
	branches        int64
	predications    int64
	allocations     int64
	wrongPathAllocs int64
	selectUops      int64
	allocStallSlots int64
	fetchCtxOpens   int64
	transparentOps  int64
	invalidatedMem  int64
	loadForwards    int64
}

// Result reports one simulation run.
type Result struct {
	Scheme  string
	Config  string
	Cycles  int64
	Retired int64
	IPC     float64

	CondBranches int64
	Branches     int64
	Mispredicts  int64 // retired mispredicted conditional branches
	Flushes      int64 // all pipeline flushes (mispredict + divergence)
	DivFlushes   int64
	Predications int64 // dual-fetched branch instances

	Allocations     int64 // total OOO allocations (incl. wrong path, selects)
	WrongPathAllocs int64
	SelectUops      int64
	AllocStallSlots int64
	TransparentOps  int64
	InvalidatedMem  int64
	LoadForwards    int64

	L1Hits, L1Misses   int64
	LLCHits, LLCMisses int64

	PerBranch map[int]*BranchStat
	FinalRegs [isa.NumRegs]int64
	Halted    bool

	// CPI is the per-cycle attribution stack (nil unless EnableCPIStack
	// was called before the run).
	CPI *CPIStack
}

// MispredPerKilo returns retired mispredictions per 1000 retired
// instructions.
func (r *Result) MispredPerKilo() float64 {
	if r.Retired == 0 {
		return 0
	}
	return float64(r.Mispredicts) * 1000 / float64(r.Retired)
}

// FlushPerKilo returns pipeline flushes per 1000 retired instructions.
func (r *Result) FlushPerKilo() float64 {
	if r.Retired == 0 {
		return 0
	}
	return float64(r.Flushes) * 1000 / float64(r.Retired)
}

// New builds a core for the program with the given configuration,
// predictor and optional predication scheme (nil = plain speculation).
func New(cfg config.Core, program []isa.Instruction, predictor bpu.Predictor, scheme Scheme) *Core {
	return newCore(cfg, program, predictor, scheme, nil, isa.NewMemory(), nil)
}

// NewWithMemory is New with an initial memory image. The emulator that
// produces the correct path's branch outcomes runs ahead of retirement
// over a copy-on-write snapshot of the image (isa.Memory.CloneCOW), so
// only the pages either side writes are copied; the committed memory
// keeps the original. Callers must not reuse the image afterwards.
func NewWithMemory(cfg config.Core, program []isa.Instruction, predictor bpu.Predictor, scheme Scheme, image *isa.Memory) *Core {
	return newCore(cfg, program, predictor, scheme, nil, image.CloneCOW(), image)
}

// newCore builds every core: hier is its data-cache hierarchy (nil = a
// fresh one), emuMem the correct-path emulator's memory, and commitMem
// the committed image (nil = an empty one, made when the core first runs).
func newCore(cfg config.Core, program []isa.Instruction, predictor bpu.Predictor, scheme Scheme,
	hier *mem.Hierarchy, emuMem, commitMem *isa.Memory) *Core {
	if hier == nil {
		hier = mem.NewHierarchy(cfg.Mem)
	}
	fqCap := cfg.FetchWidth * cfg.FrontEndLatency
	if fqCap < 1 {
		fqCap = 1
	}
	// Ring storage is rounded up to powers of two so slot computations are
	// masks rather than divisions (they run several times per cycle).
	fqStore := ceilPow2(fqCap)
	maxLat := maxSchedLatency(cfg)
	compStore := ceilPow2(maxLat + 1)
	c := &Core{
		cfg:        cfg,
		prog:       program,
		pred:       predictor,
		hier:       hier,
		scheme:     scheme,
		rob:        newROB(cfg.ROBSize),
		prf:        make([]prfEntry, cfg.PRFSize),
		iq:         make([]*robEntry, 0, cfg.IQSize),
		iqSpare:    make([]*robEntry, 0, cfg.IQSize),
		waitHead:   make([]int32, cfg.PRFSize),
		waitRecs:   make([]waitRec, cfg.IQSize),
		waitFree:   -1,
		woken:      make([]waitRec, 0, cfg.IQSize),
		fetchQ:     make([]fetchedInst, fqStore),
		fetchQCap:  fqCap,
		fqMask:     fqStore - 1,
		compRing:   make([][]compRec, compStore),
		compMask:   int64(compStore - 1),
		compMaxLat: maxLat,
		perPC:      make(map[int]*BranchStat),
		haltSeq:    -1,
	}
	for r := 0; r < isa.NumRegs; r++ {
		c.rat[r] = int32(r)
		c.commitRat[r] = r
		c.prf[r].ready = true
	}
	for p := isa.NumRegs; p < cfg.PRFSize; p++ {
		c.freeList = append(c.freeList, p)
	}
	for p := range c.waitHead {
		c.waitHead[p] = -1
	}
	for n := len(c.waitRecs) - 1; n >= 0; n-- {
		c.waitRecs[n].next = c.waitFree
		c.waitFree = int32(n)
	}
	c.emu = isa.NewArchState(emuMem)
	c.emuProg = guardExits(program)
	c.events = make([]isa.Event, 0, outBatch)
	c.outcomes = make([]bool, 0, outBatch)
	c.commitMem = commitMem
	return c
}

// maxSchedLatency returns the largest completion latency issueStage can
// ever schedule under cfg: the full-miss DRAM path, any individual cache
// hit, or the longest execution latency. It sizes the completion calendar
// so bucket (doneCycle mod len) is collision-free.
func maxSchedLatency(cfg config.Core) int {
	m := isa.MaxExecLatency
	for _, l := range [...]int{cfg.Mem.DRAMLatency, cfg.Mem.LLCLat, cfg.Mem.L2Lat, cfg.Mem.L1Lat} {
		if l > m {
			m = l
		}
	}
	if m < 1 {
		m = 1
	}
	return m
}

// ceilPow2 rounds n up to the next power of two.
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// ErrDeadlock is returned when the pipeline makes no forward progress.
var ErrDeadlock = errors.New("ooo: pipeline deadlock")

// ctxCheckInterval is how many cycles elapse between context-cancellation
// polls in RunContext. ctx.Err() takes a mutex on derived contexts, so the
// retire loop amortizes it; at typical simulated IPCs this bounds the
// cancellation latency to well under a millisecond of wall time.
const ctxCheckInterval = 1 << 12

// Run simulates until the program halts or maxRetired instructions have
// retired, and returns the run's statistics.
func (c *Core) Run(maxRetired int64) (Result, error) {
	return c.RunContext(context.Background(), maxRetired)
}

// RunContext is Run with cooperative cancellation: when ctx is cancelled
// (or times out) mid-simulation the run stops within ctxCheckInterval
// loop iterations and returns the statistics accumulated so far together
// with an error wrapping ctx.Err(). A nil ctx means context.Background().
func (c *Core) RunContext(ctx context.Context, maxRetired int64) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if c.commitMem == nil {
		c.commitMem = isa.NewMemory()
	}
	var lastRetired int64
	var stuck int64
	var iter int64
	halted := false
	for c.retired < maxRetired {
		if iter&(ctxCheckInterval-1) == 0 {
			if err := ctx.Err(); err != nil {
				return c.result(halted), fmt.Errorf("ooo: run cancelled at cycle %d (retired=%d): %w",
					c.cycle, c.retired, err)
			}
		}
		iter++
		c.cycle++
		c.progress = false
		c.stallSlotsThisCycle = 0
		h := c.stepCycle()
		if h {
			halted = true
			break
		}
		if !c.progress {
			c.skipToNextEvent()
		}
		if c.retired == lastRetired {
			stuck++
			if stuck > 2_000_000 {
				return c.result(halted), fmt.Errorf("%w at cycle %d (pc=%d retired=%d rob=%d)",
					ErrDeadlock, c.cycle, c.fetchPC, c.retired, c.rob.occupancy())
			}
		} else {
			stuck = 0
			lastRetired = c.retired
		}
	}
	return c.result(halted), nil
}

// skipToNextEvent advances the clock over a quiescent stretch: when no
// stage changed state this cycle, the machine provably repeats the same
// (idempotent) work every cycle until the next scheduled completion or the
// fetch queue's head becomes ready. Jumping there directly is
// cycle-accurate as long as the per-cycle stat increments a stalled cycle
// performs are replayed once per skipped cycle: the rename allocation-stall
// slots stallSlotsThisCycle recorded, and one stall per gated body (a
// quiescent cycle issued nothing, so no issue cap held). The CPI stack's
// classification reads only commits, the ROB head and its context flags,
// and the flush cause, none of which a quiescent cycle changes, so every
// skipped cycle goes to the bucket the cycle before it was charged;
// PipeStats likewise samples the occupancies it sampled last. Trace
// events read the core's clock and are emitted only by cycles that make
// progress, so every observer sees the same run as a cycle-by-cycle one.
func (c *Core) skipToNextEvent() {
	next, ok := c.nextEventCycle()
	if !ok || next <= c.cycle+1 {
		return
	}
	skipped := next - 1 - c.cycle
	if c.stallSlotsThisCycle > 0 {
		c.s.allocStallSlots += skipped * c.stallSlotsThisCycle
	}
	if c.nGated > 0 {
		for _, ctx := range c.liveCtxs {
			ctx.bodyStalls += skipped * int64(ctx.gated)
		}
	}
	if c.cpi != nil {
		c.cpi.charge(c.cpi.last, skipped)
	}
	if c.pipe != nil {
		c.pipe.repeat(skipped)
	}
	c.cycle = next - 1
}

// nextEventCycle returns the earliest future cycle at which machine state
// can change: the nearest non-empty completion bucket, or the cycle the
// fetch queue's head leaves the front-end pipe. A quiescent machine with
// neither watermark is deadlocked; returning false leaves it to the
// cycle-by-cycle stuck detector so ErrDeadlock semantics are unchanged.
func (c *Core) nextEventCycle() (int64, bool) {
	next := int64(-1)
	if c.fqLen > 0 {
		if rc := c.fetchQ[c.fqHead].readyCycle; rc > c.cycle {
			next = rc
		}
	}
	if c.compPending > 0 {
		n := int64(len(c.compRing))
		for d := int64(1); d < n; d++ {
			if len(c.compRing[(c.cycle+d)&c.compMask]) > 0 {
				if cand := c.cycle + d; next < 0 || cand < next {
					next = cand
				}
				break
			}
		}
	}
	return next, next > 0
}

// fqReserve returns the next free fetch-queue slot for in-place
// initialization; the caller must fqCommit exactly once afterwards.
// Callers guarantee fqLen < fetchQCap before reserving.
func (c *Core) fqReserve() *fetchedInst {
	return &c.fetchQ[(c.fqHead+c.fqLen)&c.fqMask]
}

// fqCommit publishes the most recently reserved slot.
func (c *Core) fqCommit() { c.fqLen++ }

// fqFront returns the oldest fetched instruction (caller checks fqLen).
func (c *Core) fqFront() *fetchedInst { return &c.fetchQ[c.fqHead] }

// fqPopFront consumes the oldest fetched instruction.
func (c *Core) fqPopFront() {
	c.fqHead = (c.fqHead + 1) & c.fqMask
	c.fqLen--
}

// fqReset empties the fetch queue (pipeline flush).
func (c *Core) fqReset() {
	c.fqHead = 0
	c.fqLen = 0
}

// scheduleCompletion books e's completion into the latency calendar.
// Records are appended; completeStage sorts a bucket by seq before it
// drains it.
func (c *Core) scheduleCompletion(e *robEntry, lat int) {
	if uint(lat-1) >= uint(c.compMaxLat) {
		panic(fault{"ooo: completion latency %d outside calendar [1,%d]", [2]int64{int64(lat), int64(c.compMaxLat)}, 2})
	}
	e.doneCycle = c.cycle + int64(lat)
	b := &c.compRing[e.doneCycle&c.compMask]
	*b = append(*b, compRec{seq: e.seq, gen: e.gen})
	c.compPending++
}

// fault is a panic value whose message is formatted only when it is read,
// so the per-instruction helpers that check an invariant inline.
type fault struct {
	format string
	args   [2]int64
	n      int // args used
}

func (f fault) Error() string {
	args := make([]any, f.n)
	for i := range args {
		args[i] = f.args[i]
	}
	return fmt.Sprintf(f.format, args...)
}

// stepCycle advances one cycle; it returns true when the program's Halt
// retired.
func (c *Core) stepCycle() bool {
	halted := c.retireStage()
	c.completeStage()
	c.issueStage()
	c.renameStage()
	c.fetchStage()
	if c.pipe != nil {
		c.pipe.sample(c.rob.occupancy(), c.cfg.ROBSize, c.iqOccupancy(), c.cfg.IQSize)
	}
	if c.cpi != nil {
		c.cpiAccount()
	}
	return halted
}

func (c *Core) result(halted bool) Result {
	res := Result{
		Scheme:          c.schemeName(),
		Config:          c.cfg.Name,
		Cycles:          c.cycle,
		Retired:         c.retired,
		CondBranches:    c.s.condBranches,
		Branches:        c.s.branches,
		Mispredicts:     c.s.mispredRetired,
		Flushes:         c.s.flushes,
		DivFlushes:      c.s.divFlushes,
		Predications:    c.s.predications,
		Allocations:     c.s.allocations,
		WrongPathAllocs: c.s.wrongPathAllocs,
		SelectUops:      c.s.selectUops,
		AllocStallSlots: c.s.allocStallSlots,
		TransparentOps:  c.s.transparentOps,
		InvalidatedMem:  c.s.invalidatedMem,
		LoadForwards:    c.s.loadForwards,
		L1Hits:          c.hier.L1D.Hits(),
		L1Misses:        c.hier.L1D.Misses(),
		LLCHits:         c.hier.LLC.Hits(),
		LLCMisses:       c.hier.LLC.Misses(),
		PerBranch:       c.perPC,
		Halted:          halted,
		CPI:             c.cpi,
	}
	if c.cycle > 0 {
		res.IPC = float64(c.retired) / float64(c.cycle)
	}
	for r := 0; r < isa.NumRegs; r++ {
		res.FinalRegs[r] = c.prf[c.commitRat[r]].val
	}
	return res
}

// newTok mints a fresh, never-zero flush token.
func (c *Core) newTok() flushToken {
	c.tokGen++
	return c.tokGen
}

func (c *Core) schemeName() string {
	if c.scheme == nil {
		return "baseline"
	}
	return c.scheme.Name()
}

func (c *Core) branchStat(pc int) *BranchStat {
	st, ok := c.perPC[pc]
	if !ok {
		st = &BranchStat{}
		c.perPC[pc] = st
	}
	return st
}
