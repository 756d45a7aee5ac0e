package ooo

import (
	"fmt"

	"acb/internal/isa"
)

// IQStats summarizes the parked and gated issue-queue entries after one
// cycle.
type IQStats struct {
	Parked     int // entries on a register's waiter list
	ParkedBody int // of which ACB/DMP body instructions
	Gated      int // stall-mode bodies on their context's gate
}

// GateRef names one gated body by seq and allocation generation, so a
// later cycle can tell whether it was squashed (Live).
type GateRef struct {
	Seq int64
	Gen uint64
}

// StepCycle advances one cycle the way RunContext does, without
// quiescent-cycle skipping, and reports whether the program halted and
// how many instructions have retired.
func (c *Core) StepCycle() (halted bool, retired int64) {
	if c.commitMem == nil {
		panic("ooo: StepCycle needs a core built by NewWithMemory")
	}
	c.cycle++
	c.progress = false
	c.stallSlotsThisCycle = 0
	halted = c.stepCycle()
	return halted, c.retired
}

// Result reports the run so far, as Run would on stopping here.
func (c *Core) Result(halted bool) Result { return c.result(halted) }

// CheckIQ verifies the event-driven wakeup invariants between cycles:
//   - occupancy: len(iq) plus the parked count equals the live ROB
//     entries that are in the IQ and not issued, and the parked count is
//     the register-parked entries plus the gated ones;
//   - the scan list is seq-ordered and holds no parked or gated entry,
//     and the woken buffer has been drained;
//   - every waiter record belongs to a live entry parked on exactly that
//     register, the register is not ready (no lost wakeup);
//   - every gated entry is a live, unissued stall-mode body of a context
//     whose branch is unresolved, on exactly its own context's gate; each
//     gate lists its members newest first and holds as many as its
//     count, no resolved context keeps a gated member, and the gates'
//     total is the core's nGated;
//   - listed plus free records fill the arena.
//
// gated, when not nil, receives the gated entries.
func (c *Core) CheckIQ(gated *[]GateRef) (IQStats, error) {
	var st IQStats
	if len(c.woken) != 0 {
		return st, fmt.Errorf("woken buffer holds %d records between cycles", len(c.woken))
	}
	inIQ, parked, gatedROB := 0, 0, 0
	for s := c.rob.headSeq; s < c.rob.nextSeq; s++ {
		e := c.rob.at(s)
		if e == nil || !e.inIQ || e.issued {
			continue
		}
		inIQ++
		switch {
		case e.waitPhys >= 0:
			parked++
		case e.waitPhys == waitGate:
			gatedROB++
			if e.role != RoleBody || e.ctx.spec.Eager || e.ctx.branchDone {
				return st, fmt.Errorf("gated seq=%d is not a stall-mode body of an unresolved branch (role %d, eager %v, done %v)",
					e.seq, e.role, e.ctx.spec.Eager, e.ctx.branchDone)
			}
		case e.waitPhys != -1:
			return st, fmt.Errorf("seq=%d has wakeup register %d", e.seq, e.waitPhys)
		}
	}
	if got := len(c.iq) + c.nParked; got != inIQ {
		return st, fmt.Errorf("len(iq)=%d + nParked=%d = %d, but %d ROB entries wait in the IQ",
			len(c.iq), c.nParked, got, inIQ)
	}
	if parked+gatedROB != c.nParked {
		return st, fmt.Errorf("%d ROB entries carry a wakeup register and %d are gated, nParked=%d",
			parked, gatedROB, c.nParked)
	}
	for i, e := range c.iq {
		if e.waitPhys != -1 {
			return st, fmt.Errorf("scan entry seq=%d is parked (%d)", e.seq, e.waitPhys)
		}
		if i > 0 && c.iq[i-1].seq >= e.seq {
			return st, fmt.Errorf("scan out of order: seq %d before %d", c.iq[i-1].seq, e.seq)
		}
	}
	listed := make([]bool, len(c.waitRecs))
	for p, head := range c.waitHead {
		for n := head; n >= 0; n = c.waitRecs[n].next {
			if listed[n] {
				return st, fmt.Errorf("waiter record %d linked twice", n)
			}
			listed[n] = true
			r := c.waitRecs[n]
			if !r.e.valid || r.e.seq != r.seq {
				return st, fmt.Errorf("p%d lists a squashed entry (seq=%d)", p, r.seq)
			}
			if int(r.e.waitPhys) != p {
				return st, fmt.Errorf("seq=%d listed on p%d but parked on p%d", r.e.seq, p, r.e.waitPhys)
			}
			if c.prf[p].ready {
				return st, fmt.Errorf("lost wakeup: seq=%d parked on ready p%d", r.e.seq, p)
			}
			st.Parked++
			if r.e.role == RoleBody {
				st.ParkedBody++
			}
		}
	}
	for _, ctx := range c.liveCtxs {
		n, prev := 0, int64(-1)
		for i := ctx.gate; i >= 0; i = c.waitRecs[i].next {
			if listed[i] {
				return st, fmt.Errorf("gate record %d linked twice", i)
			}
			listed[i] = true
			r := c.waitRecs[i]
			if !r.e.valid || r.e.seq != r.seq {
				return st, fmt.Errorf("ctx%d gate lists a squashed entry (seq=%d)", ctx.id, r.seq)
			}
			if r.e.ctx != ctx || r.e.waitPhys != waitGate {
				return st, fmt.Errorf("seq=%d is on ctx%d's gate but belongs to ctx%d (wait %d)",
					r.seq, ctx.id, r.e.ctx.id, r.e.waitPhys)
			}
			if prev >= 0 && r.seq >= prev {
				return st, fmt.Errorf("ctx%d gate out of order: seq %d after %d", ctx.id, r.seq, prev)
			}
			prev = r.seq
			n++
			if gated != nil {
				*gated = append(*gated, GateRef{r.seq, r.e.gen})
			}
		}
		if n != ctx.gated {
			return st, fmt.Errorf("ctx%d gate lists %d bodies, its count is %d", ctx.id, n, ctx.gated)
		}
		if n > 0 && ctx.branchDone {
			return st, fmt.Errorf("ctx%d keeps %d gated bodies after its branch resolved", ctx.id, n)
		}
		st.Gated += n
	}
	if st.Gated != gatedROB {
		return st, fmt.Errorf("gates list %d bodies, but %d ROB entries are gated", st.Gated, gatedROB)
	}
	if st.Gated != c.nGated {
		return st, fmt.Errorf("gates list %d bodies, but nGated=%d", st.Gated, c.nGated)
	}
	free := 0
	for n := c.waitFree; n >= 0; n = c.waitRecs[n].next {
		if listed[n] {
			return st, fmt.Errorf("waiter record %d both listed and free", n)
		}
		free++
	}
	if st.Parked+st.Gated+free != len(c.waitRecs) {
		return st, fmt.Errorf("waiter arena leaks: %d listed + %d gated + %d free of %d",
			st.Parked, st.Gated, free, len(c.waitRecs))
	}
	return st, nil
}

// Live reports whether the ROB entry ref names is still in flight.
func (c *Core) Live(ref GateRef) bool {
	e := c.rob.at(ref.Seq)
	return e != nil && e.gen == ref.Gen
}

// FlushCounts returns the mispredict and divergence flushes so far.
func (c *Core) FlushCounts() (mispredict, divergence int64) {
	return c.s.flushes - c.s.divFlushes, c.s.divFlushes
}

// PathPC returns the PC fetch's correct-path cursor is at.
func (c *Core) PathPC() int { return c.cur.pc }

// PathStep advances fetch's correct-path cursor over one instruction, as
// correct-path fetch does, and returns the outcome a branch consumed.
func (c *Core) PathStep() (taken bool) {
	if c.prog[c.cur.pc].Op == isa.Br {
		taken = c.outcome(c.cur.k)
	}
	c.step(&c.cur)
	return taken
}

// PathSnapshot saves fetch's cursor as a correct-path context open does.
func (c *Core) PathSnapshot() { c.snapshots = append(c.snapshots, pathSnap{cur: c.cur}) }

// PathRewind restores snapshot i and drops it and every younger one, as a
// divergence flush does.
func (c *Core) PathRewind(i int) {
	c.cur = c.snapshots[i].cur
	c.snapshots = c.snapshots[:i]
}

// PathDropOldest drops the oldest snapshot, as its context's retirement
// does.
func (c *Core) PathDropOldest() {
	n := copy(c.snapshots, c.snapshots[1:])
	c.snapshots = c.snapshots[:n]
}

// PathSnapshots returns the number of live snapshots.
func (c *Core) PathSnapshots() int { return len(c.snapshots) }

// OutcomeCapacity returns the capacity of the kept-outcome buffer: the
// most outcomes it has had to hold at once, rounded up by append.
func (c *Core) OutcomeCapacity() int { return cap(c.outcomes) }

// LiveContexts returns the number of predication contexts whose branch
// has not retired.
func (c *Core) LiveContexts() int { return len(c.liveCtxs) }
