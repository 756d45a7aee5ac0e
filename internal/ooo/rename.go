package ooo

import (
	"fmt"

	"acb/internal/isa"
)

// renameStage renames and allocates up to AllocWidth instructions from the
// fetch queue into the ROB/IQ/LSQ, injecting select micro-ops at eager
// (DMP-style) reconvergence points.
func (c *Core) renameStage() {
	budget := c.cfg.AllocWidth
	for budget > 0 {
		if c.selHead < len(c.pendingSelects) {
			if !c.allocSelect(&c.pendingSelects[c.selHead]) {
				c.s.allocStallSlots += int64(budget)
				c.stallSlotsThisCycle += int64(budget)
				return
			}
			c.selHead++
			if c.selHead == len(c.pendingSelects) {
				c.pendingSelects = c.pendingSelects[:0]
				c.selHead = 0
			}
			c.progress = true
			budget--
			continue
		}
		if c.fqLen == 0 {
			return
		}
		fi := c.fqFront()
		if fi.readyCycle > c.cycle {
			return
		}
		// Build select micro-ops at an eager context's reconvergence point
		// before the first post-region instruction renames.
		if cl := fi.ctxClose; cl != nil && cl.spec.Eager && !cl.selectsBuilt && !cl.diverged {
			cl.selectsBuilt = true
			c.buildSelects(cl)
			c.progress = true
			continue
		}
		if !c.resourcesAvailable(fi) {
			c.s.allocStallSlots += int64(budget)
			c.stallSlotsThisCycle += int64(budget)
			return
		}
		c.renameOne(fi)
		c.fqPopFront()
		c.progress = true
		budget--
	}
}

// resourcesAvailable reports whether one more instruction fits in the
// backend structures.
func (c *Core) resourcesAvailable(fi *fetchedInst) bool {
	if c.rob.full() {
		return false
	}
	op := fi.inst.Op
	needsIQ := op != isa.Nop && op != isa.Halt && op != isa.Jmp
	if needsIQ && c.iqOccupancy() >= c.cfg.IQSize {
		return false
	}
	if op == isa.Load && c.loads.len() >= c.cfg.LQSize {
		return false
	}
	if op == isa.Store && c.stores.len() >= c.cfg.SQSize {
		return false
	}
	if fi.inst.HasDest() && len(c.freeList) == 0 {
		return false
	}
	return true
}

// renameOne renames one fetched instruction into the backend.
func (c *Core) renameOne(fi *fetchedInst) {
	// Eager fork: the second fetched path renames against the RAT as it
	// was at the predicated branch (DMP's forked RAT).
	if fi.ctxSwitch && fi.ctx != nil && fi.ctx.spec.Eager {
		fi.ctx.rat1 = c.rat
		fi.ctx.haveRAT1 = true
		c.rat = fi.ctx.rat0
	}

	e := c.rob.alloc()
	e.pc = fi.pc
	e.inst = fi.inst
	e.role = fi.role
	e.ctx = fi.ctx
	e.pathTaken = fi.pathTaken
	e.wrongPath = fi.wrongPath
	if fi.hasPred {
		e.pred = fi.pred
	}
	e.hasPred = fi.hasPred
	e.predTaken = fi.predTaken
	e.trueKnown = fi.trueKnown
	e.trueTaken = fi.trueTaken
	e.histAtFetch = fi.histAtFetch
	e.wrongTok = fi.wrongTok

	c.s.allocations++
	if c.pipe != nil {
		c.pipe.renameSlots++
	}
	if fi.wrongPath {
		c.s.wrongPathAllocs++
	}

	if fi.inst.IsControl() {
		e.ratCkpt = c.rat
		e.hasCkpt = true
	}
	if fi.role == RolePredBranch && fi.ctx != nil {
		fi.ctx.branchSeq = e.seq
		if fi.ctx.spec.Eager {
			fi.ctx.rat0 = c.rat
		}
	}

	// Both source fields name valid registers whatever the op reads, so
	// both are renamed and nsrc bounds the reads. (Copying them through
	// Sources' [2]Reg wrote two bytes and read them back as one word, a
	// store-forwarding stall.)
	e.src[0] = c.rat[fi.inst.Rs1]
	e.src[1] = c.rat[fi.inst.Rs2]
	e.nsrc = fi.inst.NumSources()

	if fi.inst.HasDest() {
		d := fi.inst.Rd
		e.prevPhys = c.rat[d]
		p := c.popFree()
		e.dest = p
		c.prf[p] = prfEntry{}
		c.rat[d] = p
		if e.role == RoleBody && e.ctx != nil && e.ctx.spec.Eager && e.prevPhys == e.ctx.rat0[d] {
			e.skipPrevFree = true
		}
	}

	switch fi.inst.Op {
	case isa.Load:
		e.isLoad = true
		c.loads.push(e.seq)
	case isa.Store:
		e.isStore = true
		c.stores.push(e.seq)
	}

	switch fi.inst.Op {
	case isa.Nop, isa.Halt, isa.Jmp:
		e.done = true
	default:
		e.inIQ = true
		if e.role == RoleBody && !e.ctx.spec.Eager && !e.ctx.branchDone {
			c.gateBody(e)
		} else {
			c.iq = append(c.iq, e)
		}
	}
}

// buildSelects computes the select micro-ops an eager context needs: one
// per logical register written on either fetched path, choosing between
// the two paths' final physical registers once the branch resolves
// (DMP's select-µop merge; these consume allocation bandwidth, which is
// the cost the paper's Fig. 10 measures).
func (c *Core) buildSelects(ctx *ctxState) {
	var pA, pB [isa.NumRegs]int
	if ctx.haveRAT1 {
		pA = ctx.rat1 // end of first fetched path
		pB = c.rat    // end of second fetched path
	} else {
		pA = c.rat // only path fetched
		pB = ctx.rat0
	}
	var ratT, ratN [isa.NumRegs]int
	if ctx.spec.FirstTaken {
		ratT, ratN = pA, pB
	} else {
		ratT, ratN = pB, pA
	}
	for r := 0; r < isa.NumRegs; r++ {
		if ratT[r] == ctx.rat0[r] && ratN[r] == ctx.rat0[r] {
			continue
		}
		ss := selectSpec{
			ctx:  ctx,
			log:  isa.Reg(r),
			selT: ratT[r],
			selN: ratN[r],
		}
		for _, p := range [maxFreeOnRetire]int{ratT[r], ratN[r], ctx.rat0[r]} {
			dup := false
			for i := 0; i < int(ss.nFree); i++ {
				if int(ss.frees[i]) == p {
					dup = true
					break
				}
			}
			if !dup {
				ss.frees[ss.nFree] = int32(p)
				ss.nFree++
			}
		}
		c.pendingSelects = append(c.pendingSelects, ss)
	}
}

// allocSelect allocates one pending select micro-op; it returns false when
// backend resources are exhausted this cycle.
func (c *Core) allocSelect(ss *selectSpec) bool {
	if c.rob.full() || c.iqOccupancy() >= c.cfg.IQSize || len(c.freeList) == 0 {
		return false
	}
	e := c.rob.alloc()
	e.pc = ss.ctx.branchPC
	e.role = RoleSelect
	e.ctx = ss.ctx
	e.wrongPath = ss.ctx.wrongPath
	e.selT = ss.selT
	e.selN = ss.selN
	e.selLog = ss.log
	e.freeOnRetire = ss.frees
	e.nFree = ss.nFree
	p := c.popFree()
	e.dest = p
	c.prf[p] = prfEntry{}
	c.rat[ss.log] = p
	c.iq = append(c.iq, e)
	e.inIQ = true
	c.s.allocations++
	c.s.selectUops++
	if c.pipe != nil {
		c.pipe.renameSlots++
	}
	return true
}

func (c *Core) popFree() int {
	if len(c.freeList) == 0 {
		panic(fmt.Sprintf("ooo: physical register file exhausted at cycle %d", c.cycle))
	}
	p := c.freeList[len(c.freeList)-1]
	c.freeList = c.freeList[:len(c.freeList)-1]
	return p
}
