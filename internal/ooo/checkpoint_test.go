package ooo

import (
	"context"
	"testing"

	"acb/internal/bpu"
	"acb/internal/config"
	"acb/internal/isa"
	"acb/internal/mem"
)

// TestNewFromCheckpointResumesToSameState fast-forwards functionally to the
// middle of a program, resumes a detailed core from the checkpoint, and
// checks the resumed core's final architectural state (registers and
// committed memory) matches an uninterrupted detailed run's.
func TestNewFromCheckpointResumesToSameState(t *testing.T) {
	prog, image := buildLoopHammock(800)
	cfg := config.Skylake()

	full := NewWithMemory(cfg, prog, bpu.NewTAGE(bpu.DefaultTAGEConfig()), nil, image.Clone())
	fullRes, err := full.Run(1 << 30)
	if err != nil {
		t.Fatalf("full run: %v", err)
	}
	if !fullRes.Halted {
		t.Fatalf("full run did not halt")
	}

	st := isa.NewArchState(image.Clone())
	mid := fullRes.Retired / 2
	steps, halted := st.Run(prog, mid)
	if halted || steps != mid {
		t.Fatalf("functional fast-forward = (%d,%v)", steps, halted)
	}
	ck := st.Checkpoint(mid)

	resumed := NewFromCheckpoint(cfg, prog, bpu.NewTAGE(bpu.DefaultTAGEConfig()), nil, ck, nil)
	res, err := resumed.Run(1 << 30)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !res.Halted {
		t.Fatalf("resumed run did not halt")
	}
	if got, want := ck.Retired+res.Retired, fullRes.Retired; got != want {
		t.Fatalf("resumed retired %d (+%d checkpoint) != full %d", res.Retired, ck.Retired, want)
	}
	if res.FinalRegs != fullRes.FinalRegs {
		t.Fatalf("final regs diverge:\nresumed %v\nfull    %v", res.FinalRegs, fullRes.FinalRegs)
	}
	if diffs := resumed.CommitMemory().DiffWords(full.CommitMemory(), 3); len(diffs) > 0 {
		t.Fatalf("final memory diverges: %+v", diffs)
	}
}

// TestRunWindowDeltas checks measured-span accounting: the measured width
// lands on the target (modulo retire-width overshoot) and counters are
// deltas, not cumulative totals.
func TestRunWindowDeltas(t *testing.T) {
	prog, image := buildLoopHammock(2000)
	cfg := config.Skylake()
	st := isa.NewArchState(image.Clone())
	st.Run(prog, 3000)
	ck := st.Checkpoint(3000)

	c := NewFromCheckpoint(cfg, prog, bpu.NewTAGE(bpu.DefaultTAGEConfig()), nil, ck, nil)
	const warmup, measure = 500, 1000
	res, err := c.RunWindow(context.Background(), warmup, measure)
	if err != nil {
		t.Fatalf("RunWindow: %v", err)
	}
	if res.Halted {
		t.Fatalf("window unexpectedly hit program end")
	}
	over := int64(cfg.RetireWidth - 1)
	if res.Retired < measure || res.Retired > measure+2*over {
		t.Fatalf("measured width %d, want ~%d (≤%d overshoot per span)", res.Retired, measure, over)
	}
	if res.Cycles <= 0 || res.Cycles >= c.cycle {
		t.Fatalf("window cycles %d not a delta of total %d", res.Cycles, c.cycle)
	}
	// The window ends at checkpoint+warm+measure retired instructions; the
	// committed state there must match the functional emulator.
	ref := ck.Restore()
	ref.Run(prog, c.Retired())
	for r := 0; r < isa.NumRegs; r++ {
		if res.FinalRegs[r] != ref.Regs[r] {
			t.Fatalf("r%d = %d, functional reference %d", r, res.FinalRegs[r], ref.Regs[r])
		}
	}
}

// TestRunWindowHaltDuringWarmup: a program ending inside the warm-up span
// must yield a zero-width halted window, not a deadlock.
func TestRunWindowHaltDuringWarmup(t *testing.T) {
	prog, image := buildLoopHammock(50)
	c := NewWithMemory(config.Skylake(), prog, bpu.NewTAGE(bpu.DefaultTAGEConfig()), nil, image.Clone())
	res, err := c.RunWindow(context.Background(), 1<<20, 1000)
	if err != nil {
		t.Fatalf("RunWindow: %v", err)
	}
	if !res.Halted || res.Retired != 0 {
		t.Fatalf("halt-in-warmup window = {Halted:%v Retired:%d}, want zero-width halted", res.Halted, res.Retired)
	}
}

// TestWarmHierarchyPrimesCaches: a window core given a hierarchy primed
// with the addresses it will touch must see fewer L1 misses than a cold
// one.
func TestWarmHierarchyPrimesCaches(t *testing.T) {
	prog, image := buildLoopHammock(200)
	st := isa.NewArchState(image.Clone())
	st.Run(prog, 100)
	ck := st.Checkpoint(100)
	cfg := config.Skylake()

	cold := NewFromCheckpoint(cfg, prog, bpu.NewTAGE(bpu.DefaultTAGEConfig()), nil, ck, nil)
	coldRes, err := cold.RunWindow(context.Background(), 0, 800)
	if err != nil {
		t.Fatalf("cold window: %v", err)
	}

	hier := mem.NewHierarchy(cfg.Mem)
	for a := int64(0x1000); a < 0x1000+256*8; a += 8 {
		hier.LoadLatency(a)
	}
	warmCore := NewFromCheckpoint(cfg, prog, bpu.NewTAGE(bpu.DefaultTAGEConfig()), nil, ck, hier)
	warmRes, err := warmCore.RunWindow(context.Background(), 0, 800)
	if err != nil {
		t.Fatalf("warm window: %v", err)
	}
	if warmRes.L1Misses >= coldRes.L1Misses {
		t.Fatalf("warming did not reduce L1 misses: warm %d, cold %d", warmRes.L1Misses, coldRes.L1Misses)
	}
}
