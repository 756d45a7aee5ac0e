package ooo

import (
	"fmt"

	"acb/internal/isa"
)

// fetchStage fetches up to FetchWidth instructions into the decoupled
// fetch queue, following branch predictions, or — while a predication
// context is open — walking both directions of the predicated branch up to
// its reconvergence point.
func (c *Core) fetchStage() {
	for i := 0; i < c.cfg.FetchWidth; i++ {
		if c.fqLen >= c.fetchQCap || c.fetchParked {
			return
		}
		var consumed, stop bool
		if c.ctxPhase > 0 {
			consumed, stop = c.fetchCtxSlot()
		} else {
			consumed, stop = c.fetchNormalSlot()
		}
		// Reaching a slot function always mutates front-end state (a fetch,
		// a phase transition, parking, ...), so the cycle made progress.
		c.progress = true
		if stop {
			return
		}
		if !consumed {
			i-- // phase transition consumed no fetch slot
		}
	}
}

// newFetched reserves the next fetch-queue ring slot and initialises its
// common fields in place. Every call is paired with exactly one pushFetch,
// which commits the slot. The reset is field-wise (not a composite-literal
// assignment) to avoid copying the struct through a stack temporary; pred
// is deliberately left stale — readers are guarded by hasPred.
func (c *Core) newFetched(pc int, inst *isa.Instruction) *fetchedInst {
	fi := c.fqReserve()
	fi.pc = pc
	fi.inst = inst
	fi.readyCycle = c.cycle + int64(c.cfg.FrontEndLatency)
	fi.ctx = nil
	fi.ctxClose = c.pendingClose
	fi.wrongTok = 0
	fi.fetchFlags = fetchFlags{wrongPath: c.onWrongPath}
	c.pendingClose = nil
	return fi
}

// fetchNormalSlot fetches one instruction outside any predication context.
func (c *Core) fetchNormalSlot() (consumed, stop bool) {
	pc := c.fetchPC
	if pc < 0 || pc >= len(c.prog) {
		// Wrong-path fetch ran off the program; park until a flush.
		c.fetchParked = true
		return false, true
	}
	inst := &c.prog[pc]
	fi := c.newFetched(pc, inst)
	trueKnown := !c.onWrongPath && !c.pathHalted
	if trueKnown && c.cur.pc != pc {
		extra := fmt.Sprintf(" liveCtxs=%d snaps=%d pendingClose=%v lastWrong=%s@pc%d cyc%d",
			len(c.liveCtxs), len(c.snapshots), c.pendingClose != nil, c.dbgWrongWhy, c.dbgWrongPC, c.dbgWrongCyc)
		for _, lc := range c.liveCtxs {
			extra += fmt.Sprintf(" [ctx%d pc=%d recon=%d closed=%v div=%v wrong=%v scanFail=%v done=%v]",
				lc.id, lc.branchPC, lc.spec.ReconPC, lc.closed, lc.diverged, lc.wrongPath, lc.scanFailed, lc.branchDone)
		}
		panic(fmt.Sprintf("ooo: oracle desync at fetch: oracle pc=%d fetch pc=%d cycle=%d%s",
			c.cur.pc, pc, c.cycle, extra))
	}

	switch inst.Op {
	case isa.Halt:
		c.fetchParked = true
		if trueKnown {
			c.pathHalted = true
		}
		c.pushFetch(fi)
		c.emitFetchEvent(fi, false, 0)
		return true, true

	case isa.Jmp:
		c.fetchPC = inst.Target
		if trueKnown {
			c.cur.pc = inst.Target // step: the cursor is at pc
		}
		c.pushFetch(fi)
		c.emitFetchEvent(fi, true, inst.Target)
		return true, false

	case isa.Br:
		return c.fetchBranch(pc, inst, fi, trueKnown)

	default:
		c.fetchPC = pc + 1
		if trueKnown {
			c.cur.pc++ // step: the cursor is at pc
		}
		c.pushFetch(fi)
		c.emitFetchEvent(fi, false, 0)
		return true, false
	}
}

// fetchBranch handles a conditional branch in normal fetch: predict it,
// consult the predication scheme, and either speculate or open a context.
func (c *Core) fetchBranch(pc int, inst *isa.Instruction, fi *fetchedInst, trueKnown bool) (consumed, stop bool) {
	trueTaken := false
	if trueKnown {
		trueTaken = c.outcome(c.cur.k)
	}
	fi.pred = c.pred.Predict(uint64(pc), trueTaken)
	fi.hasPred = true
	fi.trueKnown = trueKnown
	fi.trueTaken = trueTaken
	pred := &fi.pred

	if c.scheme != nil {
		if spec, ok := c.scheme.ShouldPredicate(pc, pred.Taken, pred.Conf, pred.Hist); ok {
			c.openCtx(pc, spec, trueKnown, trueTaken, fi)
			c.pushFetch(fi)
			c.emitFetchEvent(fi, spec.FirstTaken, inst.Target)
			return true, false
		}
	}

	// Normal speculation.
	fi.predTaken = pred.Taken
	c.pred.PushHistory(uint64(pc), pred.Taken)
	if pred.Taken {
		c.fetchPC = inst.Target
	} else {
		c.fetchPC = pc + 1
	}
	if trueKnown {
		// step: the cursor is at pc and its outcome is trueTaken.
		c.cur.pc = pc + 1
		if trueTaken {
			c.cur.pc = inst.Target
		}
		c.cur.k++
		if pred.Taken != trueTaken {
			tok := c.newTok()
			fi.wrongTok = tok
			c.wrongTok = tok
			c.onWrongPath = true
			c.dbgWrongPC, c.dbgWrongCyc, c.dbgWrongWhy = pc, c.cycle, "mispredict"
		}
	}
	c.pushFetch(fi)
	c.emitFetchEvent(fi, pred.Taken, inst.Target)
	return true, false
}

// openCtx opens a predication context at the conditional branch at pc. For
// correct-path contexts it snapshots the correct-path cursor and scans the
// architecturally-correct path to the reconvergence point.
func (c *Core) openCtx(pc int, spec PredSpec, trueKnown, trueTaken bool, fi *fetchedInst) {
	c.ctxIDGen++
	ctx := &ctxState{
		id:        c.ctxIDGen,
		spec:      spec,
		branchPC:  pc,
		branchSeq: -1,
		wrongPath: c.onWrongPath,
		tok:       c.newTok(),
		gate:      -1,
	}
	fi.role = RolePredBranch
	fi.ctx = ctx
	c.liveCtxs = append(c.liveCtxs, ctx)
	c.s.fetchCtxOpens++
	if c.trace != nil {
		c.trace.Emit(EvDualFetchOpen, pc, ctx.id, int64(spec.ReconPC))
	}

	if trueKnown {
		c.snapshots = append(c.snapshots, pathSnap{ctx: ctx, cur: c.cur})
		ctx.trueKnown = true
		ctx.trueTaken = trueTaken
		c.step(&c.cur) // the branch itself
		ctx.trueStart = c.cur
		for c.cur.pc != spec.ReconPC {
			if ctx.trueLen >= spec.MaxBody || uint(c.cur.pc) >= uint(len(c.prog)) ||
				c.prog[c.cur.pc].Op == isa.Halt {
				ctx.scanFailed = true
				break
			}
			c.step(&c.cur)
			ctx.trueLen++
		}
	}

	if spec.PushTrueHistory {
		t := trueTaken
		if !trueKnown {
			t = fi.pred.Taken
		}
		c.pred.PushHistory(uint64(pc), t)
	}

	// Initialize the dual-path walk.
	c.ctx = ctx
	c.ctxPhase = 1
	c.pendingSwtch = false
	c.walk = ctx.trueStart
	inst := &c.prog[pc]
	if spec.FirstTaken {
		c.ctxNext = inst.Target
		c.ctxD2Start = pc + 1
		c.ctxWalkTaken = true
	} else {
		c.ctxNext = pc + 1
		c.ctxD2Start = inst.Target
		c.ctxWalkTaken = false
	}
}

// fetchCtxSlot advances the dual-path walk by one instruction (or one
// phase transition, which consumes no fetch slot).
func (c *Core) fetchCtxSlot() (consumed, stop bool) {
	ctx := c.ctx
	recon := ctx.spec.ReconPC

	// Phase transitions happen before fetching.
	if c.ctxNext == recon {
		if c.ctxPhase == 1 {
			c.ctxPhase = 2
			c.ctxNext = c.ctxD2Start
			c.ctxWalkTaken = !c.ctxWalkTaken
			c.walk = ctx.trueStart
			ctx.body = 0
			c.pendingSwtch = true
			if c.trace != nil {
				c.trace.Emit(EvDualFetchSwitch, ctx.branchPC, ctx.id, int64(c.ctxNext))
			}
			if c.ctxNext == recon { // empty second path (Type-1)
				c.closeCtx(ctx)
			}
			return false, false
		}
		c.closeCtx(ctx)
		return false, false
	}

	pc := c.ctxNext
	if pc < 0 || pc >= len(c.prog) || c.prog[pc].Op == isa.Halt {
		c.divergeCtx(ctx, pc)
		return false, false
	}
	inst := &c.prog[pc]
	fi := c.newFetched(pc, inst)
	fi.role = RoleBody
	fi.ctx = ctx
	fi.pathTaken = c.ctxWalkTaken
	fi.ctxSwitch = c.pendingSwtch
	c.pendingSwtch = false

	// Compute the next PC of the walk.
	var next int
	takenDir := false
	onTrue := ctx.trueKnown && !ctx.scanFailed && c.ctxWalkTaken == ctx.trueTaken
	if onTrue {
		// Follow the architecturally-correct path the open scanned; it
		// ends at the reconvergence point.
		c.step(&c.walk)
		next = c.walk.pc
		takenDir = inst.IsControl() && next == inst.Target
	} else {
		switch inst.Op {
		case isa.Jmp:
			next = inst.Target
			takenDir = true
		case isa.Br:
			// Internal branch on a non-executing (or unknown) path:
			// follow the predictor without perturbing global history.
			p := c.pred.Predict(uint64(pc), false)
			if p.Taken {
				next = inst.Target
				takenDir = true
			} else {
				next = pc + 1
			}
		default:
			next = pc + 1
		}
	}

	ctx.body++
	c.pushFetch(fi)
	c.emitFetchEvent(fi, takenDir, inst.Target)

	if ctx.body > ctx.spec.MaxBody {
		c.divergeCtx(ctx, next)
		return true, false
	}
	c.ctxNext = next
	return true, false
}

// closeCtx ends a context's dual fetch at its reconvergence point. A
// context whose architecturally-correct path failed to reconverge is
// divergent even if the walk closed.
func (c *Core) closeCtx(ctx *ctxState) {
	if ctx.scanFailed {
		c.divergeCtx(ctx, ctx.spec.ReconPC)
		return
	}
	ctx.closed = true
	c.pendingClose = ctx
	c.ctx = nil
	c.ctxPhase = 0
	c.fetchPC = ctx.spec.ReconPC
	if c.trace != nil {
		c.trace.Emit(EvReconverge, ctx.branchPC, ctx.id, int64(ctx.spec.ReconPC))
	}
}

// divergeCtx marks a context divergent: the front end gives up on
// reconvergence, subsequent fetch is wrong-path until the forced flush at
// the predicated branch's resolution (Sec. III-C).
func (c *Core) divergeCtx(ctx *ctxState, resumePC int) {
	ctx.diverged = true
	ctx.closed = true // the stalled branch may now schedule (divergence identifier)
	if c.trace != nil {
		c.trace.Emit(EvDiverge, ctx.branchPC, ctx.id, int64(resumePC))
	}
	c.ctx = nil
	c.ctxPhase = 0
	c.fetchPC = resumePC
	if resumePC < 0 || resumePC >= len(c.prog) {
		c.fetchParked = true
	}
	if !ctx.wrongPath {
		c.onWrongPath = true
		c.wrongTok = ctx.tok
		c.dbgWrongPC, c.dbgWrongCyc, c.dbgWrongWhy = ctx.branchPC, c.cycle, "divergence"
	}
}

// pushFetch commits the ring slot reserved by newFetched.
func (c *Core) pushFetch(fi *fetchedInst) {
	if c.pipe != nil {
		c.pipe.fetchSlots++
	}
	c.fqCommit()
}

// emitFetchEvent feeds the believed-correct-path fetch stream to the
// predication scheme's learning structures. It inlines, so the baseline
// and wrong-path fetch pay only its test.
func (c *Core) emitFetchEvent(fi *fetchedInst, taken bool, target int) {
	if c.scheme != nil && !fi.wrongPath {
		c.onFetch(fi, taken, target)
	}
}

func (c *Core) onFetch(fi *fetchedInst, taken bool, target int) {
	c.scheme.OnFetch(FetchEvent{
		PC:        fi.pc,
		IsBranch:  fi.inst.Op == isa.Br,
		IsControl: fi.inst.IsControl(),
		Taken:     taken,
		Target:    target,
		InContext: fi.ctx != nil,
	})
}
