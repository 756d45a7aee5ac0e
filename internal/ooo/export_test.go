package ooo

import "fmt"

// IQStats summarizes the parked issue-queue entries after one cycle.
type IQStats struct {
	Parked     int // entries on a waiter list
	ParkedBody int // of which ACB/DMP body instructions
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
	c.stallCtxScratch = c.stallCtxScratch[:0]
	halted = c.stepCycle()
	return halted, c.retired
}

// CheckIQ verifies the event-driven wakeup invariants between cycles:
//   - occupancy: len(iq) plus the parked count equals the live ROB
//     entries that are in the IQ and not issued;
//   - the scan list is seq-ordered and holds no parked entry, and the
//     woken buffer has been drained;
//   - every waiter record belongs to a live entry parked on exactly that
//     register, the register is not ready (no lost wakeup), the records
//     number nParked, and listed plus free records fill the arena.
func (c *Core) CheckIQ() (IQStats, error) {
	var st IQStats
	if len(c.woken) != 0 {
		return st, fmt.Errorf("woken buffer holds %d records between cycles", len(c.woken))
	}
	inIQ, parked := 0, 0
	for s := c.rob.headSeq; s < c.rob.nextSeq; s++ {
		e := c.rob.at(s)
		if e == nil || !e.inIQ || e.issued {
			continue
		}
		inIQ++
		if e.waitPhys >= 0 {
			parked++
		}
	}
	if got := len(c.iq) + c.nParked; got != inIQ {
		return st, fmt.Errorf("len(iq)=%d + nParked=%d = %d, but %d ROB entries wait in the IQ",
			len(c.iq), c.nParked, got, inIQ)
	}
	if parked != c.nParked {
		return st, fmt.Errorf("%d ROB entries carry a wakeup register, nParked=%d", parked, c.nParked)
	}
	for i, e := range c.iq {
		if e.waitPhys >= 0 {
			return st, fmt.Errorf("scan entry seq=%d is parked on p%d", e.seq, e.waitPhys)
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
	free := 0
	for n := c.waitFree; n >= 0; n = c.waitRecs[n].next {
		if listed[n] {
			return st, fmt.Errorf("waiter record %d both listed and free", n)
		}
		free++
	}
	if st.Parked+free != len(c.waitRecs) {
		return st, fmt.Errorf("waiter arena leaks: %d listed + %d free of %d",
			st.Parked, free, len(c.waitRecs))
	}
	if st.Parked != c.nParked {
		return st, fmt.Errorf("waiter lists hold %d live records, nParked=%d", st.Parked, c.nParked)
	}
	return st, nil
}
