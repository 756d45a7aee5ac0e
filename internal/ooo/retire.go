package ooo

import (
	"fmt"

	"acb/internal/isa"
)

// retireStage commits up to RetireWidth completed instructions in order:
// stores write the committed memory and cache, branch predictors train,
// physical registers free, and the predication scheme observes resolved
// branches and retirement ticks (Dynamo's epoch clock). It returns true
// when the program's Halt retires.
func (c *Core) retireStage() bool {
	for n := 0; n < c.cfg.RetireWidth; n++ {
		e := c.rob.head()
		if e == nil || !e.done {
			return false
		}
		if e.wrongPath {
			// A wrong-path instruction can never become the oldest: the
			// mispredicted branch ahead of it flushes first.
			panic(fmt.Sprintf("ooo: wrong-path instruction reached retirement: pc=%d role=%d seq=%d cycle=%d inst=%v",
				e.pc, e.role, e.seq, c.cycle, e.inst) +
				fmt.Sprintf(" cause=%s@pc%d cyc%d stillWrong=%v", c.dbgWrongWhy, c.dbgWrongPC, c.dbgWrongCyc, c.onWrongPath))
		}

		if e.isStore && !e.invalidated {
			c.commitMem.Store(e.effAddr, e.storeVal)
			c.hier.StoreCommit(e.effAddr)
		}
		if e.isLoad {
			c.loads.popFrontIf(e.seq)
		}
		if e.isStore {
			c.stores.popFrontIf(e.seq)
		}

		if e.inst != nil {
			switch e.inst.Op {
			case isa.Br:
				c.retireBranch(e)
			case isa.Jmp:
				c.s.branches++
			}
		}

		// Architectural register map and reclamation. An eager-mode body
		// producer on the discarded path must not update the committed
		// map: its result is dead at the merge, and the select micro-op
		// that follows performs the architectural write (in stall mode
		// the transparency move already carries the previous mapping's
		// value, so the update is harmless there).
		discarded := e.role == RoleBody && e.ctx != nil && e.ctx.spec.Eager &&
			e.ctx.branchDone && e.pathTaken != e.ctx.branchTaken
		if e.dest >= 0 && !discarded {
			if e.role == RoleSelect {
				c.commitRat[e.selLog] = e.dest
			} else if e.inst != nil && e.inst.HasDest() {
				c.commitRat[e.inst.Rd] = e.dest
			}
		}
		if e.dest >= 0 && e.prevPhys >= 0 && !e.skipPrevFree {
			c.freeList = append(c.freeList, e.prevPhys)
		}
		for i := 0; i < int(e.nFree); i++ {
			c.freeList = append(c.freeList, int(e.freeOnRetire[i]))
		}

		halt := e.inst != nil && e.inst.Op == isa.Halt
		c.rob.pop()
		c.progress = true
		if c.pipe != nil {
			c.pipe.retireSlots++
		}
		if c.cpi != nil {
			c.cpi.noteCommit(e.seq)
		}
		// Only architecturally-useful instructions count as retired:
		// predicated-false-path bodies are transparent nullifications and
		// select micro-ops are machine-internal, so neither contributes
		// to IPC (they still consume commit bandwidth above).
		useful := e.role != RoleSelect &&
			!(e.role == RoleBody && e.ctx != nil && e.pathTaken != e.ctx.branchTaken)
		if useful {
			c.retired++
			if c.scheme != nil {
				c.scheme.OnRetireTick(c.cycle)
			}
		}
		if halt {
			return true
		}
	}
	return false
}

// retireBranch handles a retiring conditional branch: statistics,
// predictor training and scheme events.
func (c *Core) retireBranch(e *robEntry) {
	c.s.branches++
	c.s.condBranches++
	st := c.branchStat(e.pc)
	st.Count++
	if e.resolvedTaken {
		st.Taken++
	}

	switch e.role {
	case RolePredBranch:
		ctx := e.ctx
		c.s.predications++
		st.Predicated++
		if ctx.flushedDiv {
			st.Diverged++
		}
		// Drop this context's path snapshot (divergence already removed
		// it).
		if len(c.snapshots) > 0 && c.snapshots[0].ctx == ctx {
			// Shift down rather than reslicing the base forward: snapshots[1:]
			// would strand capacity behind the new base and force the next
			// append to reallocate once per predicated instance.
			n := copy(c.snapshots, c.snapshots[1:])
			c.snapshots[n] = pathSnap{}
			c.snapshots = c.snapshots[:n]
		}
		c.pruneLiveCtx(ctx)
		if c.scheme != nil {
			hint := -1
			if ctx.flushedDiv {
				hint = ctx.reconHint
			}
			c.scheme.OnBranchResolve(ResolveEvent{
				PC:              e.pc,
				Target:          e.inst.Target,
				Taken:           e.resolvedTaken,
				Predicated:      true,
				Diverged:        ctx.flushedDiv,
				ReconHint:       hint,
				BodyStallCycles: ctx.bodyStalls,
				Hist:            e.pred.Hist,
			})
		}
		// No predictor update: no prediction was made for this instance
		// and it is absent from the global history (Sec. V-C).

	case RoleBody:
		// Internal branch of a predicated region: excluded from history
		// at fetch, so excluded from training too.

	default:
		if e.mispredict {
			c.s.mispredRetired++
			st.Mispredict++
		}
		if c.scheme != nil {
			c.scheme.OnBranchResolve(ResolveEvent{
				PC:         e.pc,
				Target:     e.inst.Target,
				Taken:      e.resolvedTaken,
				Mispredict: e.mispredict,
				ROBFrac:    e.robFrac,
				Hist:       e.pred.Hist,
				PredTaken:  e.predTaken,
			})
		}
		if e.hasPred {
			c.pred.Update(uint64(e.pc), e.pred, e.resolvedTaken)
		}
	}
}

func (c *Core) pruneLiveCtx(ctx *ctxState) {
	for i, lc := range c.liveCtxs {
		if lc == ctx {
			c.liveCtxs = append(c.liveCtxs[:i], c.liveCtxs[i+1:]...)
			return
		}
	}
}
