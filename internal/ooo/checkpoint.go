// Checkpointed starts and windowed measurement: the detailed-core half of
// SMARTS-style sampled simulation (internal/sample). A window worker
// restores an architectural checkpoint produced by the functional
// emulator, takes a warmed cache hierarchy, runs a detailed but
// unmeasured warm-up stretch, and then measures a bounded span whose
// statistics are reported in isolation.

package ooo

import (
	"context"

	"acb/internal/bpu"
	"acb/internal/config"
	"acb/internal/isa"
	"acb/internal/mem"
)

// NewFromCheckpoint builds a core whose architectural state — registers,
// memory, PC — starts at ckpt instead of the program's entry. The
// correct-path emulator's memory and the committed image are both
// copy-on-write snapshots of the checkpoint's memory
// (isa.Memory.CloneCOW), so the caller may reuse ckpt freely (including
// for concurrent window jobs). The core takes hier as its data-cache
// hierarchy (nil = a fresh, cold one): sampled simulation passes a clone
// of the hierarchy it warmed over the fast-forwarded region
// (mem.Hierarchy.Clone). The pipeline and scheme tables start cold;
// callers warm the predictor by passing one already trained on the
// fast-forwarded region (bpu.Warm/Cloner), then hide the rest of the
// cold-start transient behind RunWindow's warm-up span.
func NewFromCheckpoint(cfg config.Core, program []isa.Instruction, predictor bpu.Predictor, scheme Scheme,
	ckpt *isa.Checkpoint, hier *mem.Hierarchy) *Core {
	c := newCore(cfg, program, predictor, scheme, hier, ckpt.Mem.CloneCOW(), ckpt.Mem.CloneCOW())
	c.emu.PC = ckpt.PC
	c.emu.Regs = ckpt.Regs
	c.cur.pc = ckpt.PC
	c.fetchPC = ckpt.PC
	// The initial RAT maps logical register r to physical register r
	// (newCore); seeding those physical registers makes the checkpointed
	// values both readable by renamed consumers and visible as the
	// committed state.
	for r := 0; r < isa.NumRegs; r++ {
		c.prf[r].val = ckpt.Regs[r]
	}
	return c
}

// Retired returns the total architecturally-useful instructions retired so
// far (across every Run/RunContext/RunWindow call on this core).
func (c *Core) Retired() int64 { return c.retired }

// CommitMemory returns the retired (architectural) memory image, or nil if
// the core has not run yet. Sampled-simulation verification diffs it
// against a functional reference at window boundaries; callers must not
// mutate it.
func (c *Core) CommitMemory() *isa.Memory { return c.commitMem }

// measureMark snapshots every cumulative counter a Result reports, so a
// measured span can be reported as deltas.
type measureMark struct {
	cycle   int64
	retired int64
	s       runStats
	l1h     int64
	l1m     int64
	llch    int64
	llcm    int64
}

func (c *Core) mark() measureMark {
	return measureMark{
		cycle:   c.cycle,
		retired: c.retired,
		s:       c.s,
		l1h:     c.hier.L1D.Hits(),
		l1m:     c.hier.L1D.Misses(),
		llch:    c.hier.LLC.Hits(),
		llcm:    c.hier.LLC.Misses(),
	}
}

// RunWindow advances the core by warmup retired instructions — detailed
// but unmeasured, so the cold-start transient of a checkpointed start is
// excluded — and then by measure more, returning statistics for the
// measured span only. Cycle and event counters are deltas from the end of
// the warm-up; FinalRegs and Halted describe the core's state when the
// window ends (retirement is architectural, so FinalRegs at a retired
// count always equals the functional emulator at the same count).
// Retirement is checked at cycle granularity, so the span may overshoot
// its target by up to RetireWidth-1 instructions; Result.Retired reports
// the actual measured width. PerBranch and CPI are not reported for
// windows. A program that halts during warm-up yields a zero-width
// measured span with Halted set.
func (c *Core) RunWindow(ctx context.Context, warmup, measure int64) (Result, error) {
	warmRes, err := c.RunContext(ctx, c.retired+warmup)
	if err != nil {
		return warmRes, err
	}
	m := c.mark()
	if warmRes.Halted {
		return c.windowResult(m, true), nil
	}
	res, err := c.RunContext(ctx, c.retired+measure)
	if err != nil {
		return res, err
	}
	return c.windowResult(m, res.Halted), nil
}

// windowResult builds a Result covering everything since the mark.
func (c *Core) windowResult(m measureMark, halted bool) Result {
	res := Result{
		Scheme:          c.schemeName(),
		Config:          c.cfg.Name,
		Cycles:          c.cycle - m.cycle,
		Retired:         c.retired - m.retired,
		CondBranches:    c.s.condBranches - m.s.condBranches,
		Branches:        c.s.branches - m.s.branches,
		Mispredicts:     c.s.mispredRetired - m.s.mispredRetired,
		Flushes:         c.s.flushes - m.s.flushes,
		DivFlushes:      c.s.divFlushes - m.s.divFlushes,
		Predications:    c.s.predications - m.s.predications,
		Allocations:     c.s.allocations - m.s.allocations,
		WrongPathAllocs: c.s.wrongPathAllocs - m.s.wrongPathAllocs,
		SelectUops:      c.s.selectUops - m.s.selectUops,
		AllocStallSlots: c.s.allocStallSlots - m.s.allocStallSlots,
		TransparentOps:  c.s.transparentOps - m.s.transparentOps,
		InvalidatedMem:  c.s.invalidatedMem - m.s.invalidatedMem,
		LoadForwards:    c.s.loadForwards - m.s.loadForwards,
		L1Hits:          c.hier.L1D.Hits() - m.l1h,
		L1Misses:        c.hier.L1D.Misses() - m.l1m,
		LLCHits:         c.hier.LLC.Hits() - m.llch,
		LLCMisses:       c.hier.LLC.Misses() - m.llcm,
		Halted:          halted,
	}
	if res.Cycles > 0 {
		res.IPC = float64(res.Retired) / float64(res.Cycles)
	}
	for r := 0; r < isa.NumRegs; r++ {
		res.FinalRegs[r] = c.prf[c.commitRat[r]].val
	}
	return res
}
