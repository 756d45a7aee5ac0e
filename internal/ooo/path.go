package ooo

import (
	"fmt"

	"acb/internal/isa"
)

// The fetch engine needs the architecturally-correct path: to know where
// fetch leaves it (a mispredict, a divergence), to give the oracle
// predictor and the branch cross-check each branch's true direction, and
// to walk a predicated region's true path. A pathCursor follows that path
// through the program without executing it: conditional branches are its
// only data-dependent steps, and their outcomes come from a functional
// emulator over the program's image, run ahead in batches (produce).

// pathCursor is a position on the correct path: pc is the next
// instruction, and k the index of the next conditional-branch outcome in
// the run's stream of correct-path outcomes.
type pathCursor struct {
	pc int
	k  int64
}

// pathSnap saves fetch's cursor at the branch of a correct-path
// predication context, so a divergence flush can rewind to it.
type pathSnap struct {
	ctx *ctxState
	cur pathCursor
}

const (
	// outBatch is the events one RunEvents batch holds.
	outBatch = 256
	// outSteps bounds the instructions one produce call runs, so a long
	// branch-free stretch past the last needed outcome costs no more.
	outSteps = 1 << 14
)

// step advances p over the instruction at p.pc: a branch consumes
// outcome k, a jump goes to its target, a Halt stays put, and every other
// instruction falls through. p.pc must lie inside the program.
func (c *Core) step(p *pathCursor) {
	in := &c.prog[p.pc]
	switch in.Op {
	case isa.Br:
		if c.outcome(p.k) {
			p.pc = in.Target
		} else {
			p.pc++
		}
		p.k++
	case isa.Jmp:
		p.pc = in.Target
	case isa.Halt:
	default:
		p.pc++
	}
}

// outcome returns correct-path branch outcome k, producing it if needed.
func (c *Core) outcome(k int64) bool {
	for k >= c.outBase+int64(len(c.outcomes)) {
		c.produce()
	}
	return c.outcomes[k-c.outBase]
}

// produce runs the emulator on by one batch and appends the branch
// outcomes it found. It first drops the outcomes no cursor can consume
// again: those before fetch's cursor and the oldest snapshot. Only fetch's
// cursor reaches past the outcomes produced so far, and never while a
// context's walk is open (the walk follows outcomes its context's scan
// produced), so no walk is in progress here.
func (c *Core) produce() {
	if c.emuDone {
		panic(fmt.Sprintf("ooo: correct path needs more than the run's %d branch outcomes",
			c.outBase+int64(len(c.outcomes))))
	}
	keep := c.cur.k
	if len(c.snapshots) > 0 {
		keep = min(keep, c.snapshots[0].cur.k)
	}
	if d := keep - c.outBase; d > 0 {
		c.outcomes = c.outcomes[:copy(c.outcomes, c.outcomes[d:])]
		c.outBase = keep
	}
	batch, _, halted := c.emu.RunEvents(c.emuProg, outSteps, c.events[:0])
	for _, ev := range batch {
		if ev.Op == isa.Br {
			c.outcomes = append(c.outcomes, ev.Taken)
		}
	}
	c.emuDone = halted
}

// guardExits returns prog or, when control can leave it (a fall-through
// past the last instruction, a jump or branch target outside it), a copy
// whose exits all lead to a Halt appended at len(prog). The emulator runs
// ahead of fetch over it, so it stops where the program runs off instead
// of panicking at a PC the run may never reach; the cursor follows the
// original program to the exit, where fetch parks.
func guardExits(prog []isa.Instruction) []isa.Instruction {
	n := len(prog)
	outside := func(t int) bool { return t < 0 || t >= n }
	leaves := false
	for i := range prog {
		switch in := &prog[i]; in.Op {
		case isa.Halt:
		case isa.Jmp:
			leaves = leaves || outside(in.Target)
		case isa.Br:
			leaves = leaves || outside(in.Target) || i == n-1
		default:
			leaves = leaves || i == n-1
		}
	}
	if !leaves {
		return prog
	}
	g := make([]isa.Instruction, n+1)
	copy(g, prog)
	for i := range prog {
		if in := &g[i]; (in.Op == isa.Jmp || in.Op == isa.Br) && outside(in.Target) {
			in.Target = n
		}
	}
	g[n] = isa.Instruction{Op: isa.Halt}
	return g
}
