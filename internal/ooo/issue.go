package ooo

import (
	"fmt"
	"math"
	"slices"

	"acb/internal/isa"
)

// issueStage selects ready instructions from the issue queue, reads their
// operands, computes results (value-correct execution) and schedules their
// completion. It enforces the predication disciplines:
//
//   - An ACB-predicated branch stalls until fetch has delivered the
//     reconvergence (or divergence) identifier (Sec. III-C2).
//   - ACB body instructions add the predicated branch as a source; once it
//     resolves, predicated-false producers execute as moves from the last
//     physical register of their logical destination (register
//     transparency), and predicated-false memory ops are invalidated.
//   - Eager (DMP) bodies execute freely; select micro-ops wait for the
//     branch plus the chosen source.
//   - Loads wait until all older stores have computed addresses, and stall
//     behind address-matching stores of unresolved predicated regions.
//
// An entry whose only remaining wait is one unready physical register
// leaves the scan (park) until completeStage wakes it, and a stall-mode
// body renamed before its branch resolved waits on its context's gate
// until resolveBranch opens it; see waitRec. Gated bodies are charged the
// stall cycles polling would have counted (countGateStalls).
func (c *Core) issueStage() {
	issued := 0
	loadsIssued, storesIssued := 0, 0
	maxLoads := c.cfg.IssueWidth / 4
	if maxLoads < 2 {
		maxLoads = 2
	}
	maxStores := c.cfg.IssueWidth / 8
	if maxStores < 1 {
		maxStores = 1
	}
	// capW, capL and capS are the seqs of the issues that filled the
	// width, load and store caps: the scan attempts nothing younger than
	// a cap that applies to it.
	capW, capL, capS := noCap, noCap, noCap
	if len(c.iq) == 0 && len(c.woken) == 0 {
		c.countGateStalls(capW, capL, capS)
		return
	}

	// The scan walks c.iq merged with the entries woken since the last
	// scan, in seq order, so age-ordered select sees each woken entry
	// exactly where polling would have kept it. Survivors go to the spare
	// buffer, which becomes c.iq.
	scan, woken := c.iq, c.sortWoken()
	keep := c.iqSpare[:0]
	for len(scan) > 0 || len(woken) > 0 {
		var e *robEntry
		if len(woken) > 0 && (len(scan) == 0 || woken[0].seq < scan[0].seq) {
			e, woken = woken[0].e, woken[1:]
			e.waitPhys = -1
			c.nParked--
		} else {
			e, scan = scan[0], scan[1:]
		}
		if issued >= c.cfg.IssueWidth ||
			(e.isLoad && loadsIssued >= maxLoads) ||
			(e.isStore && storesIssued >= maxStores) {
			keep = append(keep, e)
			continue
		}
		var lat int
		ok := false
		if e.role == RoleNone {
			// tryIssueRegs, inline: the common entry costs one call.
			if w := c.unreadySrc(e); w >= 0 {
				e.waitPhys = w
			} else {
				lat, ok = c.execute(e)
			}
		} else {
			lat, ok = c.tryIssue(e)
		}
		if !ok {
			if e.waitPhys >= 0 {
				c.park(e)
			} else {
				keep = append(keep, e)
			}
			continue
		}
		e.issued = true
		e.inIQ = false
		c.scheduleCompletion(e, lat)
		c.progress = true
		issued++
		if issued == c.cfg.IssueWidth {
			capW = e.seq
		}
		if c.pipe != nil {
			c.pipe.issueSlots++
		}
		if e.isLoad {
			if loadsIssued++; loadsIssued == maxLoads {
				capL = e.seq
			}
		}
		if e.isStore {
			if storesIssued++; storesIssued == maxStores {
				capS = e.seq
			}
		}
	}
	c.iqSpare, c.iq = c.iq[:0], keep
	c.woken = c.woken[:0]
	c.countGateStalls(capW, capL, capS)
}

// noCap marks an issue cap that did not fill this cycle.
const noCap = int64(math.MaxInt64)

// countGateStalls charges each gated body one stall cycle (its context's
// bodyStalls, ResolveEvent.BodyStallCycles) when this cycle's scan would
// have reached it: when it is older than every cap that filled and
// applies to it. That is the count polling made, one per failed attempt.
// With no cap filled, a gate is charged its size. It inlines to a test of
// nGated.
func (c *Core) countGateStalls(capW, capL, capS int64) {
	if c.nGated > 0 {
		c.chargeGates(capW, capL, capS)
	}
}

func (c *Core) chargeGates(capW, capL, capS int64) {
	for _, ctx := range c.liveCtxs {
		if ctx.gated == 0 {
			continue
		}
		if capW == noCap && capL == noCap && capS == noCap {
			ctx.bodyStalls += int64(ctx.gated)
			continue
		}
		for n := ctx.gate; n >= 0; n = c.waitRecs[n].next {
			r := &c.waitRecs[n]
			if r.seq < capW && (!r.e.isLoad || r.seq < capL) && (!r.e.isStore || r.seq < capS) {
				ctx.bodyStalls++
			}
		}
	}
}

// tryIssue checks readiness and, if ready, performs the instruction's
// value computation, returning its completion latency. A failure whose
// only cause is one unready physical register records that register in
// e.waitPhys, and the scan parks the entry on it. Failures with per-cycle
// side effects or non-register conditions leave no hint and are polled:
// a select awaiting its branch, a predicated branch awaiting its
// reconvergence id, an eager body (its invalidation re-check below), and
// a load blocked on an older store. Stall-mode bodies never reach it
// before their branch resolves: they wait on their context's gate.
func (c *Core) tryIssue(e *robEntry) (lat int, ok bool) {
	switch e.role {
	case RoleSelect:
		return c.tryIssueSelect(e)
	case RolePredBranch:
		if !e.ctx.spec.Eager && !e.ctx.closed {
			return 0, false // stalled awaiting reconvergence/divergence id
		}
		return c.tryIssueRegs(e)
	case RoleBody:
		if !e.ctx.spec.Eager {
			return c.tryIssueStallBody(e)
		}
		// invalidateFalseMemOps runs once, at branch resolution; an eager
		// body memory op still in the fetch queue at that moment allocates
		// afterwards and would slip past it, so re-check here (the stall
		// path does the same inside tryIssueStallBody).
		if e.ctx.branchDone && e.pathTaken != e.ctx.branchTaken &&
			(e.isLoad || e.isStore) && !e.invalidated &&
			c.mutation != MutSkipMemInvalidate {
			e.invalidated = true
			c.s.invalidatedMem++
		}
		if c.unreadySrc(e) >= 0 {
			return 0, false
		}
		return c.execute(e)
	default:
		return c.tryIssueRegs(e)
	}
}

// unreadySrc returns e's first source physical register that is not
// ready, or -1.
func (c *Core) unreadySrc(e *robEntry) int32 {
	for i := 0; i < e.nsrc; i++ {
		if !c.prf[e.src[i]].ready {
			return int32(e.src[i])
		}
	}
	return -1
}

// tryIssueRegs handles ordinary ALU/branch/memory execution once the
// sources are ready; an unready source is recorded in e.waitPhys as the
// wakeup register. A load blocked on an older store has ready sources,
// leaves no hint and is re-attempted every cycle.
func (c *Core) tryIssueRegs(e *robEntry) (int, bool) {
	if w := c.unreadySrc(e); w >= 0 {
		e.waitPhys = w
		return 0, false
	}
	return c.execute(e)
}

func (c *Core) srcVals(e *robEntry) (a, b int64) {
	if e.nsrc > 0 {
		a = c.prf[e.src[0]].val
	}
	if e.nsrc > 1 {
		b = c.prf[e.src[1]].val
	}
	return a, b
}

// execute performs the value computation of an entry whose sources are
// ready.
func (c *Core) execute(e *robEntry) (int, bool) {
	switch e.inst.Op {
	case isa.Load:
		return c.tryIssueLoad(e)
	case isa.Store:
		a, b := c.srcVals(e)
		e.effAddr = a + e.inst.Imm
		e.storeVal = b
		e.addrReady = true
		return 1, true
	case isa.Br:
		a, b := c.srcVals(e)
		e.resolvedTaken = e.inst.Cond.Eval(a, b)
		return 1, true
	default:
		a, b := c.srcVals(e)
		e.result = e.inst.ALUResult(a, b)
		e.hasResult = true
		return e.inst.ExecLatency(), true
	}
}

// tryIssueStallBody handles ACB body instructions: they wait for the
// predicated branch, then execute normally (true path) or as transparency
// moves (false path).
func (c *Core) tryIssueStallBody(e *robEntry) (int, bool) {
	ctx := e.ctx
	if !ctx.branchDone {
		panic(fmt.Sprintf("ooo: body seq=%d attempted before its branch resolved", e.seq))
	}
	onFalse := e.pathTaken != ctx.branchTaken
	if !onFalse {
		return c.tryIssueRegs(e)
	}
	if c.mutation == MutSkipMemInvalidate && (e.isLoad || e.isStore) {
		// Deliberate break (difftest self-test): the false-path memory op
		// executes as if it were on the taken path.
		return c.tryIssueRegs(e)
	}
	// Predicated-false path: producers copy the last correctly produced
	// value of their logical destination; everything else releases.
	if e.dest >= 0 {
		if c.mutation == MutSkipTransparencyMove {
			// Deliberate break (difftest self-test): skip the move; the
			// freshly allocated physical register's zero value commits.
			e.hasResult = true
		} else {
			if !c.prf[e.prevPhys].ready {
				e.waitPhys = int32(e.prevPhys)
				return 0, false
			}
			e.result = c.prf[e.prevPhys].val
			e.hasResult = true
		}
	}
	if (e.isLoad || e.isStore) && !e.invalidated {
		// Normally already marked by invalidateFalseMemOps at resolution.
		e.invalidated = true
		c.s.invalidatedMem++
	}
	c.s.transparentOps++
	return 1, true
}

// tryIssueSelect handles injected select micro-ops: once the context
// branch resolves, forward the chosen path's value.
func (c *Core) tryIssueSelect(e *robEntry) (int, bool) {
	ctx := e.ctx
	if !ctx.branchDone {
		return 0, false
	}
	chosen := e.selN
	if ctx.branchTaken {
		chosen = e.selT
	}
	if !c.prf[chosen].ready {
		e.waitPhys = int32(chosen)
		return 0, false
	}
	e.result = c.prf[chosen].val
	e.hasResult = true
	return 1, true
}

// tryIssueLoad applies memory disambiguation: wait for all older store
// addresses, stall behind matching stores of unresolved predicated
// regions, forward from the youngest older matching store, otherwise
// access the cache hierarchy.
func (c *Core) tryIssueLoad(e *robEntry) (int, bool) {
	a, _ := c.srcVals(e)
	addr := a + e.inst.Imm
	var match *robEntry
	for _, sseq := range c.stores.live() {
		if sseq >= e.seq {
			break
		}
		se := c.rob.at(sseq)
		if se == nil || se.invalidated {
			continue
		}
		if !se.addrReady {
			// An ACB body store that is still gated on its branch also
			// lands here: its address is unknown, so the load waits
			// (the paper's "memory disambiguation logic stalls").
			return 0, false
		}
		if sameWord(se.effAddr, addr) {
			if se.ctx != nil && se.role == RoleBody && !se.ctx.branchDone {
				// Eager-mode store on an unresolved predicated path.
				return 0, false
			}
			match = se
		}
	}
	e.effAddr = addr
	e.addrReady = true
	if match != nil {
		if !match.issued {
			return 0, false
		}
		e.result = match.storeVal
		e.hasResult = true
		c.s.loadForwards++
		return c.hier.L1D.Latency(), true
	}
	e.result = c.commitMem.Load(addr)
	e.hasResult = true
	return c.hier.LoadLatency(addr), true
}

func sameWord(a, b int64) bool { return a&^7 == b&^7 }

// waitRec is one parked IQ entry, on a physical register's waiter list,
// on a context's gate, or in the woken buffer. Lists are singly linked
// through the fixed c.waitRecs arena by index, newest first: a parked or
// gated entry holds an IQ slot, so at most IQSize records are ever in
// use. A squashed entry's record is removed at once (unpark), so every
// record names a live entry; seq is copied in so the woken buffer sorts
// without touching the entries.
type waitRec struct {
	e    *robEntry
	seq  int64
	next int32 // arena index of the next record on the list, -1 at the end
}

// waitGate in e.waitPhys marks a stall-mode body on its context's gate
// (ctxState.gate), or in the woken buffer once the gate opened.
const waitGate int32 = -2

// push takes a record from the arena for e and links it at the head of
// the list *head. e stays off the issue scan but keeps its IQ slot
// (iqOccupancy), which is also why the arena always has a free record.
func (c *Core) push(head *int32, e *robEntry) {
	n := c.waitFree
	c.waitFree = c.waitRecs[n].next
	c.waitRecs[n] = waitRec{e: e, seq: e.seq, next: *head}
	*head = n
	c.nParked++
}

// park takes e off the issue scan until e.waitPhys becomes ready.
func (c *Core) park(e *robEntry) { c.push(&c.waitHead[e.waitPhys], e) }

// gateBody puts a stall-mode body renamed before its branch resolved on
// its context's gate; resolveBranch opens the gate.
func (c *Core) gateBody(e *robEntry) {
	e.waitPhys = waitGate
	c.push(&e.ctx.gate, e)
	e.ctx.gated++
	c.nGated++
}

// wake moves the list *head to the woken buffer, oldest first, and frees
// its records; completeStage calls it for a register it marks ready and
// resolveBranch for the gate of the branch it resolves. It inlines to the
// empty list's test.
func (c *Core) wake(head *int32) {
	if *head >= 0 {
		c.wakeList(head)
	}
}

func (c *Core) wakeList(head *int32) {
	start := len(c.woken)
	for n := *head; n >= 0; {
		r := &c.waitRecs[n]
		c.woken = append(c.woken, *r)
		next := r.next
		*r = waitRec{next: c.waitFree}
		c.waitFree = n
		n = next
	}
	*head = -1
	slices.Reverse(c.woken[start:])
}

// unpark releases a parked or gated entry that flushAfter is squashing:
// it gives up its IQ slot, and its record leaves its list or, when the
// list was woken earlier in the same completeStage, the woken buffer.
// Squashes run youngest first, so the record is found at once: at the
// head of its list, or at the end of the woken buffer.
func (c *Core) unpark(e *robEntry) {
	c.nParked--
	var link *int32
	if e.waitPhys == waitGate {
		link = &e.ctx.gate
	} else {
		link = &c.waitHead[e.waitPhys]
	}
	for n := *link; n >= 0; n = *link {
		r := &c.waitRecs[n]
		if r.e == e {
			*link = r.next
			*r = waitRec{next: c.waitFree}
			c.waitFree = n
			if e.waitPhys == waitGate {
				e.ctx.gated--
				c.nGated--
			}
			return
		}
		link = &r.next
	}
	for i := len(c.woken) - 1; i >= 0; i-- {
		if c.woken[i].e == e {
			c.woken = append(c.woken[:i], c.woken[i+1:]...)
			return
		}
	}
}

// sortWoken sorts the woken buffer by seq (insertion sort: a cycle wakes
// a handful of entries) and returns it.
func (c *Core) sortWoken() []waitRec {
	ws := c.woken
	for i := 1; i < len(ws); i++ {
		r := ws[i]
		j := i
		for j > 0 && ws[j-1].seq > r.seq {
			ws[j] = ws[j-1]
			j--
		}
		ws[j] = r
	}
	return ws
}

// iqOccupancy is the number of IQ slots in use: the polled entries plus
// the parked and gated ones.
func (c *Core) iqOccupancy() int { return len(c.iq) + c.nParked }
