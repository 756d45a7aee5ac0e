package ooo

import "acb/internal/isa"

// PredSpec tells the front end how to dual-fetch a predicated branch
// instance: where the paths reconverge, which direction to fetch first,
// how many body instructions may be fetched before the instance is
// declared divergent, and whether the OOO should execute the body eagerly
// with select micro-ops (DMP-style) or stall it until branch resolution
// with register transparency (ACB-style).
type PredSpec struct {
	ReconPC    int
	FirstTaken bool // fetch the taken path first (ACB Type-3); else not-taken first
	MaxBody    int  // divergence threshold in fetched body instructions
	Eager      bool // DMP select-µop mode; false = ACB stall/transparency mode
	// PushTrueHistory inserts the architecturally-correct outcome of the
	// predicated branch into global history (the DMP-PBH oracle of Fig. 9).
	// Plain ACB and DMP omit predicated instances from history entirely.
	PushTrueHistory bool
}

// FetchEvent describes one instruction passing through fetch on the
// believed-correct path; predication schemes use the stream to drive their
// learning structures (ACB's Learning and Tracking tables observe fetched
// PCs, Sec. III-B).
type FetchEvent struct {
	PC        int
	IsBranch  bool // conditional branch
	IsControl bool // any control-flow instruction
	Taken     bool // direction fetch followed (branches) / true (jumps)
	Target    int  // control target when Taken
	InContext bool // fetched inside an open predication context
}

// ResolveEvent describes a retired conditional branch (always correct-path
// by construction). Schemes train criticality and confidence state from it.
type ResolveEvent struct {
	PC         int
	Target     int // decode-time branch target
	Taken      bool
	Mispredict bool // triggered a pipeline flush
	Predicated bool // this instance was dual-fetched (no prediction made)
	Diverged   bool // predicated instance that failed to reconverge
	// ReconHint, for diverged instances, is the first architecturally-
	// correct-path PC beyond the learned reconvergence point (-1 when
	// unknown) — the feedback a multiple-reconvergence-point extension
	// learns from (the paper's category-B1 enhancement, Sec. V-C).
	ReconHint int
	// BodyStallCycles, for predicated instances, counts issue-queue
	// wakeup attempts the instance's body spent gated on the unresolved
	// branch — the signal behind the paper's rejected pre-Dynamo
	// stall-counting throttle (Sec. V-B).
	BodyStallCycles int64
	ROBFrac         float64 // at mispredict detection: distance from ROB head / ROB size
	Hist            uint64  // global history at fetch (for confidence estimators)
	PredTaken       bool    // the direction prediction (valid when !Predicated)
}

// Scheme is a dynamic-predication policy plugged into the core: ACB
// (internal/core) and DMP/DHP (internal/dmp) implement it. A nil Scheme
// runs the plain speculation baseline.
type Scheme interface {
	// Name identifies the scheme in reports.
	Name() string
	// ShouldPredicate is consulted at fetch for every conditional branch
	// on the believed-correct path while no context is open. conf is the
	// predictor's confidence proxy for this instance; hist the global
	// history. Returning ok=false speculates normally.
	ShouldPredicate(pc int, predTaken bool, conf int, hist uint64) (PredSpec, bool)
	// OnFetch observes the believed-correct-path fetch stream.
	OnFetch(ev FetchEvent)
	// OnFlush signals a pipeline flush (learning observations reset).
	OnFlush()
	// OnBranchResolve observes every retired conditional branch.
	OnBranchResolve(ev ResolveEvent)
	// OnRetireTick is called once per retired instruction with the current
	// cycle; epoch-based monitors (Dynamo) are driven from it.
	OnRetireTick(cycle int64)
}

// Role classifies an instruction's part in a predication context.
type Role uint8

// Roles.
const (
	RoleNone       Role = iota
	RolePredBranch      // the predicated branch itself
	RoleBody            // instruction in the predicated region
	RoleSelect          // injected select micro-op (eager mode)
)

// ctxState is the shared state of one predication context, referenced by
// the fetched instructions, the ROB entries and the fetch engine.
type ctxState struct {
	id        int64
	spec      PredSpec
	branchPC  int
	branchSeq int64 // ROB seq of the predicated branch (-1 until renamed)

	wrongPath bool       // context opened on the wrong path (no oracle backing)
	tok       flushToken // identifies this context as a wrong-fetch cause

	// Fetch-side progress.
	closed   bool // reconvergence reached at fetch
	diverged bool // reconvergence not found within MaxBody
	body     int  // body instructions fetched in the current phase

	// Resolution.
	branchDone  bool
	branchTaken bool
	flushedDiv  bool // divergence flush already performed

	// Correct-path bookkeeping, for correct-path contexts only: the true
	// outcome, and the true path strictly between branch and
	// reconvergence as a cursor at its first instruction and its length.
	// scanFailed means the architecturally-correct path did not reach the
	// reconvergence point within MaxBody steps.
	trueKnown  bool
	trueTaken  bool
	trueStart  pathCursor
	trueLen    int
	scanFailed bool
	reconHint  int   // divergence feedback (see ResolveEvent.ReconHint)
	bodyStalls int64 // gated-wakeup count (see ResolveEvent.BodyStallCycles)

	// gate heads the list (in the core's waitRecs arena, newest first) of
	// stall-mode bodies renamed before the branch resolved; gated counts
	// them. resolveBranch moves them to the woken buffer.
	gate  int32
	gated int

	// Eager (select-µop) rename fork state.
	rat0, rat1   [isa.NumRegs]int
	haveRAT1     bool
	selectsBuilt bool
}
