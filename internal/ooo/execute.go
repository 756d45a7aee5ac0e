package ooo

import (
	"fmt"

	"acb/internal/isa"
)

// completeStage finishes instructions whose latency expires this cycle:
// writes results to the physical register file (waking dependents) and
// resolves branches, triggering mispredict or divergence flushes.
func (c *Core) completeStage() {
	// Deferred divergence flushes: an eager-mode branch can resolve before
	// the front end discovers the instance diverges.
	for _, ctx := range c.liveCtxs {
		if ctx.diverged && ctx.branchDone && !ctx.flushedDiv {
			if be := c.rob.at(ctx.branchSeq); be != nil {
				c.divergenceFlush(be)
				c.progress = true
			}
		}
	}

	slot := c.cycle & c.compMask
	bucket := c.compRing[slot]
	if len(bucket) == 0 {
		return
	}
	// Drain oldest first, so the oldest mispredict flushes before younger
	// ones.
	sortBySeq(bucket)
	for _, rec := range bucket {
		e := c.rob.at(rec.seq)
		if e == nil || e.gen != rec.gen || e.done || !e.issued {
			continue // squashed, or a stale record against a reused seq
		}
		c.progress = true
		e.done = true
		if e.dest >= 0 {
			c.prf[e.dest] = prfEntry{val: e.result, ready: true}
			c.wake(&c.waitHead[e.dest])
		}
		if e.role == RoleSelect {
			continue
		}
		if e.inst.Op == isa.Br {
			c.resolveBranch(e)
		}
	}
	c.compPending -= len(bucket)
	c.compRing[slot] = bucket[:0]
}

// sortBySeq sorts a calendar bucket by seq: an insertion sort, stable,
// since a bucket holds a handful of records issued mostly in seq order.
func sortBySeq(b []compRec) {
	for i := 1; i < len(b); i++ {
		r := b[i]
		j := i
		for j > 0 && b[j-1].seq > r.seq {
			b[j] = b[j-1]
			j--
		}
		b[j] = r
	}
}

// resolveBranch handles a conditional branch's resolution.
func (c *Core) resolveBranch(e *robEntry) {
	switch e.role {
	case RolePredBranch:
		ctx := e.ctx
		ctx.branchDone = true
		ctx.branchTaken = e.resolvedTaken
		// Open the gate: the bodies waiting on it join this cycle's scan.
		c.wake(&ctx.gate)
		c.nGated -= ctx.gated
		ctx.gated = 0
		c.invalidateFalseMemOps(ctx)
		if ctx.diverged && !ctx.flushedDiv {
			c.divergenceFlush(e)
		}
	case RoleBody:
		// Internal branches inside a predicated region never redirect:
		// the true-direction walk followed the architecturally-correct
		// path and the false direction is transparent.
	default:
		if e.trueKnown && !e.wrongPath && e.resolvedTaken != e.trueTaken {
			panic(fmt.Sprintf("ooo: correct-path branch pc=%d seq=%d computed %v but oracle said %v (cycle %d)",
				e.pc, e.seq, e.resolvedTaken, e.trueTaken, c.cycle))
		}
		if e.resolvedTaken != e.predTaken && !e.flushed {
			e.flushed = true
			e.mispredict = true
			e.robFrac = float64(e.seq-c.rob.headSeq) / float64(c.rob.size())
			target := e.pc + 1
			if e.resolvedTaken {
				target = e.inst.Target
			}
			c.flushAfter(e, target)
			if c.cpi != nil {
				c.cpi.noteFlush(flushMispredict, e.seq)
			}
			if c.trace != nil {
				c.trace.Emit(EvFlushMispredict, e.pc, 0, int64(target))
			}
			// Repair speculative global history: rewind to this branch's
			// fetch-time history and insert the actual outcome.
			c.pred.SetHistory(e.pred.Hist)
			c.pred.PushHistory(uint64(e.pc), e.resolvedTaken)
			if e.wrongTok != 0 && e.wrongTok == c.wrongTok {
				c.onWrongPath = false
				c.wrongTok = 0
				if !c.pathHalted && c.cur.pc != c.fetchPC {
					panic(fmt.Sprintf("ooo: oracle desync after flush: oracle=%d fetch=%d", c.cur.pc, c.fetchPC))
				}
			}
		}
	}
}

// invalidateFalseMemOps marks the loads and stores on the
// predicated-false path invalid in the LSQ so they are excluded from
// address matching and never dispatch to memory (Sec. III-C3).
func (c *Core) invalidateFalseMemOps(ctx *ctxState) {
	if c.mutation == MutSkipMemInvalidate {
		return // deliberate break (difftest self-test)
	}
	mark := func(seqs []int64) {
		for _, seq := range seqs {
			se := c.rob.at(seq)
			if se == nil || se.ctx != ctx || se.role != RoleBody {
				continue
			}
			if se.pathTaken != ctx.branchTaken && !se.invalidated {
				se.invalidated = true
				c.s.invalidatedMem++
			}
		}
	}
	mark(c.loads.live())
	mark(c.stores.live())
}

// divergenceFlush forces a pipeline flush at a predicated branch whose
// instance failed to reconverge: everything younger is squashed and fetch
// redirects to the branch's resolved target.
func (c *Core) divergenceFlush(e *robEntry) {
	ctx := e.ctx
	ctx.flushedDiv = true
	ctx.reconHint = -1
	// Multiple-reconvergence feedback: the first correct-path PC beyond
	// the learned reconvergence point is where this instance actually
	// re-joined (program order), found on the scanned true path.
	p := ctx.trueStart
	for i := 0; i < ctx.trueLen; i++ {
		if p.pc > ctx.spec.ReconPC {
			ctx.reconHint = p.pc
			break
		}
		c.step(&p)
	}
	c.s.divFlushes++
	target := e.pc + 1
	if e.resolvedTaken {
		target = e.inst.Target
	}
	c.flushAfter(e, target)
	if c.cpi != nil {
		c.cpi.noteFlush(flushDivergence, e.seq)
	}
	if c.trace != nil {
		c.trace.Emit(EvFlushDivergence, e.pc, ctx.id, int64(target))
	}

	// History: predicated instances are absent from history (ACB); the
	// DMP-PBH oracle inserts the true outcome.
	c.pred.SetHistory(e.pred.Hist)
	if ctx.spec.PushTrueHistory {
		c.pred.PushHistory(uint64(e.pc), e.resolvedTaken)
	}

	// Correct-path rewind: restore the cursor saved at context open and
	// step just the branch.
	if ctx.trueKnown {
		idx := -1
		for i, sn := range c.snapshots {
			if sn.ctx == ctx {
				idx = i
				break
			}
		}
		if idx < 0 {
			panic("ooo: missing oracle snapshot for divergent context")
		}
		c.cur = c.snapshots[idx].cur
		c.snapshots = c.snapshots[:idx]
		c.step(&c.cur) // the branch itself
		c.pathHalted = false
		if c.cur.pc != target {
			panic(fmt.Sprintf("ooo: divergence redirect mismatch: oracle=%d target=%d", c.cur.pc, target))
		}
	}
	if c.wrongTok == ctx.tok && ctx.tok != 0 {
		c.onWrongPath = false
		c.wrongTok = 0
	}
}

// flushAfter squashes everything younger than e, restores the RAT from
// e's checkpoint, clears the front end and redirects fetch.
func (c *Core) flushAfter(e *robEntry, redirectPC int) {
	c.s.flushes++
	if !e.hasCkpt {
		panic("ooo: flush at instruction without RAT checkpoint")
	}
	c.rob.squashAfter(e.seq, func(se *robEntry) {
		if se.dest >= 0 {
			c.freeList = append(c.freeList, se.dest)
		}
		if se.waitPhys != -1 {
			c.unpark(se)
		}
	})
	c.rat = e.ratCkpt

	c.iq = filterEntries(c.iq, e.seq)
	c.loads.filter(e.seq)
	c.stores.filter(e.seq)
	// The completion calendar is untouched: squashed sequence numbers are
	// reused after the flush, but every record carries its allocation
	// generation, so stale events are rejected lazily when their bucket's
	// cycle arrives (completeStage). Flush cost no longer scales with the
	// number of in-flight completions.

	// Front-end reset.
	c.fqReset()
	c.pendingSelects = c.pendingSelects[:0]
	c.selHead = 0
	c.ctx = nil
	c.ctxPhase = 0
	c.pendingClose = nil
	c.pendingSwtch = false
	c.fetchParked = false
	c.fetchPC = redirectPC
	if redirectPC < 0 || redirectPC >= len(c.prog) {
		c.fetchParked = true
	}

	// Prune contexts and path snapshots younger than the flush point.
	live := c.liveCtxs[:0]
	for _, ctx := range c.liveCtxs {
		if ctx != e.ctx && (ctx.branchSeq < 0 || ctx.branchSeq > e.seq) {
			continue // squashed
		}
		live = append(live, ctx)
	}
	c.liveCtxs = live
	snaps := c.snapshots[:0]
	for _, sn := range c.snapshots {
		if sn.ctx != e.ctx && (sn.ctx.branchSeq < 0 || sn.ctx.branchSeq > e.seq) {
			continue
		}
		snaps = append(snaps, sn)
	}
	c.snapshots = snaps

	if c.scheme != nil {
		c.scheme.OnFlush()
	}
}

// filterEntries keeps entries with seq ≤ limit, preserving order.
func filterEntries(es []*robEntry, limit int64) []*robEntry {
	out := es[:0]
	for _, e := range es {
		if e.seq <= limit {
			out = append(out, e)
		}
	}
	// Clear the dropped tail so squashed entries don't linger reachable.
	for i := len(out); i < len(es); i++ {
		es[i] = nil
	}
	return out
}
