package ooo_test

import (
	"errors"
	"fmt"
	"testing"

	"acb/internal/bpu"
	"acb/internal/config"
	"acb/internal/difftest"
	"acb/internal/isa"
	"acb/internal/ooo"
	"acb/internal/prog"
	"acb/internal/workload"
)

// checkPath walks a core's correct-path cursor and the functional
// emulator's Step side by side over p for steps instructions (replays
// after a rewind count too), and fails on any difference in PC or branch
// outcome. At random it saves the cursor as a context open does, rewinds
// to a saved one as a divergence flush does, or drops the oldest as a
// retiring context does; the emulator saves and restores its state with
// it.
func checkPath(t *testing.T, p []isa.Instruction, image *isa.Memory, steps int64, seed uint64) {
	t.Helper()
	c := ooo.NewWithMemory(config.Skylake(), p, bpu.NewTAGE(bpu.DefaultTAGEConfig()), nil, image.Clone())
	ref := isa.NewArchState(image.Clone())
	var snaps []*isa.Checkpoint // the emulator at each of the cursor's snapshots
	rng := seed*0x9E3779B97F4A7C15 | 1
	rand := func(n uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}
	rewinds := 0
	for n := int64(0); n < steps; n++ {
		switch r := rand(1024); {
		case r < 3 && len(snaps) < 16:
			c.PathSnapshot()
			snaps = append(snaps, ref.Checkpoint(n))
		case r < 5 && len(snaps) > 0:
			c.PathDropOldest()
			snaps = snaps[1:]
		case r < 6 && len(snaps) > 0 && rewinds < 100:
			i := int(rand(uint64(len(snaps))))
			c.PathRewind(i)
			ref = snaps[i].Restore()
			snaps = snaps[:i]
			rewinds++
		}
		if c.PathPC() != ref.PC || c.PathSnapshots() != len(snaps) {
			t.Fatalf("step %d: cursor at pc %d with %d snapshots, the emulator at pc %d with %d",
				n, c.PathPC(), c.PathSnapshots(), ref.PC, len(snaps))
		}
		if uint(ref.PC) >= uint(len(p)) {
			return // the run left the program, where fetch parks
		}
		res := ref.Step(p)
		taken := c.PathStep()
		if res.Inst.Op == isa.Br && taken != res.Taken {
			t.Fatalf("step %d: branch at pc %d: cursor took %v, the emulator %v", n, res.PC, taken, res.Taken)
		}
		if res.Halted {
			if c.PathPC() != res.PC {
				t.Fatalf("step %d: cursor left the Halt at pc %d for %d", n, res.PC, c.PathPC())
			}
			return
		}
	}
}

// TestPathLockstep checks the correct-path cursor against the emulator
// over every suite workload's first 200k instructions and over difftest
// programs, with random snapshot and rewind sequences.
func TestPathLockstep(t *testing.T) {
	for i, w := range workload.All() {
		i, w := i, w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			p, m := w.Build()
			checkPath(t, p, m, 200_000, uint64(i)+1)
		})
	}
	for seed := uint64(1); seed <= 24; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			asm, err := difftest.Assemble(difftest.Generate(seed, difftest.DefaultGenConfig()))
			if err != nil {
				t.Fatal(err)
			}
			checkPath(t, asm.Insts, asm.Mem, asm.StepBound, seed)
		})
	}
}

// runOffProgram counts r1 down from iters, adding 3 to r2 and storing it
// each time, and then leaves the program without a Halt: the last
// instruction falls through past the end, or jumps outside it. Control
// leaves after 4*iters+2 instructions.
func runOffProgram(iters int64, jump bool) []isa.Instruction {
	b := prog.NewBuilder()
	b.MovI(isa.R1, iters)
	b.Label("loop")
	b.AddI(isa.R2, isa.R2, 3)
	b.Store(isa.R0, 64, isa.R2)
	b.AddI(isa.R1, isa.R1, -1)
	b.Brnz(isa.R1, "loop")
	b.AddI(isa.R3, isa.R2, 1)
	p := b.MustBuild()
	if jump {
		p[len(p)-1] = isa.Instruction{Op: isa.Jmp, Target: len(p) + 7}
	}
	return p
}

// TestPathRunOff runs Halt-less programs whose run-off point lies past
// the budget (a few instructions past, where fetch reaches it; a few
// hundred past, where only the outcome producer, running ahead of fetch,
// does; 1500 past, where neither does) and inside it (where the run
// deadlocks once the machine drains). Each must end as it did when a
// second functional machine stepped the correct path at fetch: with the
// same Result and error, which the table pins, and no panic.
func TestPathRunOff(t *testing.T) {
	const iters = 5_000
	exit := int64(4*iters + 2)
	cases := []struct {
		jump   bool
		budget int64
		want   string
	}{
		{false, exit - 3, "cycles=5075 retired=20001 flushes=4 halted=false regs=[0 15000 0] err=<nil>"},
		{false, exit - 400, "cycles=4975 retired=19602 flushes=3 halted=false regs=[100 14703 0] err=<nil>"},
		{false, exit - 1500, "cycles=4700 retired=18502 flushes=3 halted=false regs=[375 13878 0] err=<nil>"},
		{false, exit + 50, "cycles=2005094 retired=20002 flushes=4 halted=false regs=[0 15000 15001] " +
			"err=ooo: pipeline deadlock at cycle 2005094 (pc=6 retired=20002 rob=0)"},
		{true, exit - 3, "cycles=5075 retired=20001 flushes=4 halted=false regs=[0 15000 0] err=<nil>"},
		{true, exit - 400, "cycles=4975 retired=19602 flushes=3 halted=false regs=[100 14703 0] err=<nil>"},
		{true, exit - 1500, "cycles=4700 retired=18502 flushes=3 halted=false regs=[375 13878 0] err=<nil>"},
		{true, exit + 50, "cycles=2005092 retired=20002 flushes=4 halted=false regs=[0 15000 0] " +
			"err=ooo: pipeline deadlock at cycle 2005092 (pc=13 retired=20002 rob=0)"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("jump=%v/budget=exit%+d", tc.jump, tc.budget-exit), func(t *testing.T) {
			c := ooo.New(config.Skylake(), runOffProgram(iters, tc.jump), bpu.NewTAGE(bpu.DefaultTAGEConfig()), nil)
			res, err := c.Run(tc.budget)
			got := fmt.Sprintf("cycles=%d retired=%d flushes=%d halted=%v regs=%v err=%v",
				res.Cycles, res.Retired, res.Flushes, res.Halted, res.FinalRegs[1:4], err)
			if got != tc.want {
				t.Errorf("got  %s\nwant %s", got, tc.want)
			}
			if tc.budget > exit && !errors.Is(err, ooo.ErrDeadlock) {
				t.Errorf("err = %v, want ooo.ErrDeadlock", err)
			}
		})
	}
}

// TestKeptOutcomesBounded walks a core's correct-path cursor over gcc's
// first 20M instructions the way baseline fetch does, one step per
// correct-path instruction with no predication context open, and checks
// that the outcome buffer stays one batch long: nothing behind the cursor
// is kept. (TestGoldenBodyStalls bounds it on ACB runs, where snapshots
// keep outcomes.) Driving the whole pipeline for 20M instructions instead
// takes about 100 s under the race detector on a 2-vCPU Xeon VM.
func TestKeptOutcomesBounded(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	p, m := w.Build()
	c := ooo.NewWithMemory(config.Skylake(), p, bpu.NewTAGE(bpu.DefaultTAGEConfig()), nil, m)
	for n := 0; n < 20_000_000; n++ {
		c.PathStep()
	}
	if p[c.PathPC()].Op == isa.Halt {
		t.Fatal("gcc halted within 20M instructions")
	}
	if n := c.OutcomeCapacity(); n > 256 {
		t.Errorf("outcome buffer grew to %d", n)
	}
}
