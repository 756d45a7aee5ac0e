package ooo

import (
	"fmt"
	"strings"
)

// CPIStack attributes every simulated cycle to exactly one cause bucket,
// reproducing the per-cause cycle accounting the paper's Sec. VI analysis
// implies ("saved pipeline flushes net of added stalls"). Collection is
// off by default (EnableCPIStack) — like PipeStats, the hot path pays
// nothing when disabled.
//
// Exactly one bucket is charged per cycle, so the bucket totals always sum
// to the run's elapsed cycles (tested by internal/ooo's whitebox suite):
//
//   - Base: at least one ROB entry committed this cycle (includes commit
//     slots spent on select micro-ops and nullified false-path bodies).
//   - FrontendStarve: nothing committed and the ROB is empty with no flush
//     being repaired — the front end has not delivered work (fetch
//     latency, fetch parked off the program end).
//   - BadSpecFlush: nothing committed and the ROB is empty while the
//     pipeline refills after a branch-mispredict flush.
//   - ACBDivergence: as BadSpecFlush, but the flush being repaired was a
//     predication-divergence flush (Sec. III-C) — the cost side of ACB.
//   - ACBBodyStall: nothing committed and the ROB head is gated by ACB's
//     stall discipline: a predicated branch awaiting its reconvergence /
//     divergence identifier, or a body instruction awaiting the
//     predicated branch's resolution (Sec. III-C2).
//   - BackendStall: nothing committed and the ROB head is incomplete for
//     any other reason (execution latency, cache misses, dependency
//     chains, transparency moves awaiting their source).
//
// A flush's refill window is attributed to its cause from the flush until
// the first commit of an instruction allocated after the flush point;
// non-empty-ROB cycles inside that window are still classified by the ROB
// head, which charges execution of the refilled path to the backend
// rather than to speculation.
type CPIStack struct {
	Cycles int64 // total attributed cycles (== sum of the buckets)

	Base           int64
	FrontendStarve int64
	BadSpecFlush   int64
	BackendStall   int64
	ACBBodyStall   int64
	ACBDivergence  int64

	// Per-cycle scratch, reset by account.
	commits int
	// last is the bucket the most recent stepped cycle was charged to; a
	// quiescent stretch skipped after it belongs there too (charge).
	last cpiBucket

	// Flush-repair window state (see noteFlush / noteCommit).
	flushCause flushCause
	flushSeq   int64
}

// flushCause tags the most recent unrepaired pipeline flush.
type flushCause uint8

const (
	flushNone flushCause = iota
	flushMispredict
	flushDivergence
)

// CPIBucketNames lists the bucket labels in canonical presentation order;
// Buckets returns values in the same order.
var CPIBucketNames = []string{
	"base", "frontend", "badspec", "backend", "acb-body", "acb-divergence",
}

// cpiBucket indexes a bucket in CPIBucketNames order.
type cpiBucket uint8

const (
	bucketBase cpiBucket = iota
	bucketFrontend
	bucketBadSpec
	bucketBackend
	bucketACBBody
	bucketACBDivergence
)

// EnableCPIStack turns on per-cycle CPI attribution.
func (c *Core) EnableCPIStack() {
	if c.cpi == nil {
		c.cpi = &CPIStack{flushSeq: -1}
	}
}

// CPIStack returns the collected attribution (nil unless enabled).
func (c *Core) CPIStack() *CPIStack { return c.cpi }

// Buckets returns the bucket totals in CPIBucketNames order.
func (p *CPIStack) Buckets() []int64 {
	return []int64{p.Base, p.FrontendStarve, p.BadSpecFlush,
		p.BackendStall, p.ACBBodyStall, p.ACBDivergence}
}

// Sum returns the total of all buckets; it equals Cycles by construction.
func (p *CPIStack) Sum() int64 {
	var s int64
	for _, v := range p.Buckets() {
		s += v
	}
	return s
}

// noteCommit records one ROB commit; a commit of an instruction allocated
// after the last flush point closes that flush's repair window.
func (p *CPIStack) noteCommit(seq int64) {
	p.commits++
	if p.flushCause != flushNone && seq > p.flushSeq {
		p.flushCause = flushNone
	}
}

// noteFlush opens a flush-repair window: empty-ROB cycles until the first
// post-flush commit are charged to the flush cause.
func (p *CPIStack) noteFlush(cause flushCause, seq int64) {
	p.flushCause = cause
	p.flushSeq = seq
}

// charge adds n cycles to bucket b and remembers it as the last bucket.
func (p *CPIStack) charge(b cpiBucket, n int64) {
	p.last = b
	p.Cycles += n
	switch b {
	case bucketBase:
		p.Base += n
	case bucketFrontend:
		p.FrontendStarve += n
	case bucketBadSpec:
		p.BadSpecFlush += n
	case bucketBackend:
		p.BackendStall += n
	case bucketACBBody:
		p.ACBBodyStall += n
	case bucketACBDivergence:
		p.ACBDivergence += n
	}
}

// cpiAccount classifies the cycle that just completed. Called once per
// stepCycle, after the retire stage has drained this cycle's commits.
func (c *Core) cpiAccount() {
	p := c.cpi
	if p.commits > 0 {
		p.commits = 0
		p.charge(bucketBase, 1)
		return
	}
	p.charge(c.stallBucket(), 1)
}

// stallBucket classifies a cycle in which nothing committed.
func (c *Core) stallBucket() cpiBucket {
	head := c.rob.head()
	if head == nil {
		switch c.cpi.flushCause {
		case flushMispredict:
			return bucketBadSpec
		case flushDivergence:
			return bucketACBDivergence
		default:
			return bucketFrontend
		}
	}
	// The head exists and did not commit this cycle. Charge ACB's stall
	// discipline when it is what gates the head; everything else is a
	// generic backend stall.
	if ctx := head.ctx; ctx != nil && !ctx.spec.Eager {
		switch head.role {
		case RolePredBranch:
			if !ctx.closed {
				return bucketACBBody
			}
		case RoleBody:
			if !ctx.branchDone {
				return bucketACBBody
			}
		}
	}
	return bucketBackend
}

// String renders the stack as per-bucket cycle counts and shares.
func (p *CPIStack) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycle attribution over %d cycles:\n", p.Cycles)
	vals := p.Buckets()
	for i, name := range CPIBucketNames {
		share := 0.0
		if p.Cycles > 0 {
			share = float64(vals[i]) * 100 / float64(p.Cycles)
		}
		fmt.Fprintf(&b, "  %-14s %12d  %5.1f%%\n", name, vals[i], share)
	}
	return b.String()
}
