package isa_test

import (
	"fmt"
	"math"
	"testing"

	"acb/internal/difftest"
	"acb/internal/isa"
	"acb/internal/prog"
	"acb/internal/workload"
)

// newState returns a state at PC 0 with the registers regs over a copy of
// image.
func newState(image *isa.Memory, regs [isa.NumRegs]int64) *isa.ArchState {
	st := isa.NewArchState(image.Clone())
	st.Regs = regs
	return st
}

// checkLockstep runs prog from PC 0, the registers regs and a copy of
// image for at most maxSteps instructions, through the reference
// interpreter (RefStep) and through each entry point of the execution
// loop, and fails on any difference. After every instruction it compares
// the PC, the registers and the StepResult of Step, and the StepResult
// RunHooked hands its hook. At the end it compares the memory, the step
// count and the halt flag of Step, RunHooked, Run and RunEvents, and the
// events of RunEvents cut into batches of 1, 7 and 1024. It returns the
// reference's StepResults.
func checkLockstep(t testing.TB, p []isa.Instruction, image *isa.Memory, regs [isa.NumRegs]int64,
	maxSteps int64) []isa.StepResult {
	t.Helper()
	ref, st := newState(image, regs), newState(image, regs)
	var want []isa.StepResult
	var wantEvents []isa.Event
	halted := false
	for int64(len(want)) < maxSteps && !halted {
		var r isa.StepResult
		ref.RefStep(p, &r)
		got := st.Step(p)
		if got != r || st.PC != ref.PC || st.Regs != ref.Regs {
			t.Fatalf("instruction %d (%v at pc %d): Step gave %+v, pc %d, regs %v; the reference %+v, pc %d, regs %v",
				len(want), r.Inst, r.PC, got, st.PC, st.Regs, r, ref.PC, ref.Regs)
		}
		want = append(want, r)
		halted = r.Halted
		switch r.Inst.Op {
		case isa.Br:
			wantEvents = append(wantEvents, isa.Event{Addr: int64(r.PC), Op: isa.Br, Taken: r.Taken})
		case isa.Load, isa.Store:
			wantEvents = append(wantEvents, isa.Event{Addr: r.EffAddr, Op: r.Inst.Op})
		}
	}
	steps := int64(len(want))
	if d := st.Mem.DiffWords(ref.Mem, 1); len(d) > 0 {
		t.Fatalf("Step: memory differs from the reference's: %+v", d[0])
	}

	checkEnd := func(name string, s *isa.ArchState, n int64, h bool) {
		t.Helper()
		if n != steps || h != halted {
			t.Fatalf("%s = (%d steps, halted %v), the reference (%d, %v)", name, n, h, steps, halted)
		}
		if s.PC != ref.PC || s.Regs != ref.Regs {
			t.Fatalf("%s ended at pc %d, regs %v; the reference at pc %d, regs %v", name, s.PC, s.Regs, ref.PC, ref.Regs)
		}
		if d := s.Mem.DiffWords(ref.Mem, 1); len(d) > 0 {
			t.Fatalf("%s: memory differs from the reference's: %+v", name, d[0])
		}
	}

	hs := newState(image, regs)
	var first *isa.StepResult
	i := 0
	n, h := hs.RunHooked(p, maxSteps, func(res *isa.StepResult) {
		if first == nil {
			first = res
		} else if res != first {
			t.Fatalf("RunHooked handed instruction %d a new StepResult", i)
		}
		if i >= len(want) || *res != want[i] {
			t.Fatalf("RunHooked instruction %d: %+v, the reference %+v", i, *res, want[min(i, len(want)-1)])
		}
		i++
	})
	checkEnd("RunHooked", hs, n, h)

	rs := newState(image, regs)
	n, h = rs.Run(p, maxSteps)
	checkEnd("Run", rs, n, h)

	for _, size := range []int{1, 7, 1024} {
		es := newState(image, regs)
		batch := make([]isa.Event, 0, size)
		var got []isa.Event
		var n int64
		h := false
		for n < maxSteps && !h {
			var k int64
			batch, k, h = es.RunEvents(p, maxSteps-n, batch[:0])
			n += k
			if cap(batch) != size {
				t.Fatalf("RunEvents grew a batch of %d to %d", size, cap(batch))
			}
			if !h && n < maxSteps && len(batch) < size {
				t.Fatalf("RunEvents stopped at step %d with room in its batch of %d", n, size)
			}
			got = append(got, batch...)
		}
		name := fmt.Sprintf("RunEvents in batches of %d", size)
		checkEnd(name, es, n, h)
		if len(got) != len(wantEvents) {
			t.Fatalf("%s: %d events, the reference %d", name, len(got), len(wantEvents))
		}
		for j := range got {
			if got[j] != wantEvents[j] {
				t.Fatalf("%s: event %d is %+v, the reference %+v", name, j, got[j], wantEvents[j])
			}
		}
	}
	return want
}

// TestLockstepWorkloads runs every suite workload's first 200k
// instructions through the execution loop and the reference.
func TestLockstepWorkloads(t *testing.T) {
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p, image := w.Build()
			checkLockstep(t, p, image, [isa.NumRegs]int64{}, 200_000)
		})
	}
}

// allOpsProgram runs three iterations of a loop that executes every Op
// and every Cond, each branch taken and not taken, on the interpreter's
// edge cases: division by zero, MinInt64 / -1, shift amounts of 64 and
// more, and loads and stores at negative addresses. It ends with Halt.
func allOpsProgram() []isa.Instruction {
	const (
		iters = isa.R1
		a     = isa.R2 // -1, 0, 1 over the iterations
		zero  = isa.R3
	)
	b := prog.NewBuilder()
	b.MovI(iters, 3)
	b.MovI(a, -1)
	b.Label("loop")
	for c := isa.EQZ; c <= isa.GER; c++ {
		skip := fmt.Sprintf("skip-%v", c)
		b.Br(c, a, zero, skip)
		b.AddI(isa.R4, isa.R4, 1<<c) // records which branches fell through
		b.Label(skip)
	}
	b.MovI(isa.R5, math.MinInt64)
	b.MovI(isa.R6, -1)
	b.Div(isa.R7, isa.R5, isa.R6) // MinInt64 / -1
	b.Div(isa.R7, isa.R6, zero)   // division by zero
	b.Div(isa.R7, isa.R5, a)      // by -1, 0 and 1
	for _, sh := range []int64{3, 64, 65, 127, -1} {
		b.MovI(isa.R8, sh)
		b.Op3(isa.Shl, isa.R9, isa.R6, isa.R8)
		b.Op3(isa.Shr, isa.R10, isa.R6, isa.R8)
		b.Xor(isa.R4, isa.R4, isa.R9)
		b.Add(isa.R4, isa.R4, isa.R10)
		b.ShrI(isa.R10, isa.R6, sh)
		b.Sub(isa.R4, isa.R4, isa.R10)
	}
	b.Add(isa.R11, isa.R5, isa.R6) // wraps
	b.Sub(isa.R11, isa.R11, a)
	b.And(isa.R12, isa.R11, isa.R4)
	b.Or(isa.R12, isa.R12, a)
	b.Mul(isa.R12, isa.R12, isa.R11)
	b.AddI(isa.R13, a, math.MaxInt64)
	b.AndI(isa.R13, isa.R13, -8)
	b.XorI(isa.R13, isa.R13, 0x5555)
	b.MulI(isa.R13, isa.R13, -3)
	b.Mov(isa.R14, isa.R13)
	b.Nop()
	// Negative addresses: -4104+a*4096 lies in the pages below zero.
	b.MulI(isa.R15, a, 4096)
	b.Store(isa.R15, -4104, isa.R12)
	b.Store(isa.R15, -4100, isa.R13) // the same word: the low three bits are ignored
	b.Load(isa.R14, isa.R15, -4104)
	b.Add(isa.R4, isa.R4, isa.R14)
	b.Store(isa.R6, 0, isa.R4)
	b.AddI(a, a, 1)
	b.AddI(iters, iters, -1)
	b.Brnz(iters, "loop")
	b.Jmp("end")
	b.MovI(isa.R4, 99) // jumped over
	b.Label("end")
	b.Halt()
	return b.MustBuild()
}

// TestLockstepAllOps runs allOpsProgram through the execution loop and the
// reference, and checks that it executed every Op and every Cond both
// ways.
func TestLockstepAllOps(t *testing.T) {
	want := checkLockstep(t, allOpsProgram(), isa.NewMemory(), [isa.NumRegs]int64{}, 10_000)
	if !want[len(want)-1].Halted {
		t.Fatalf("the program did not halt")
	}
	ops := map[isa.Op]bool{}
	conds := map[[2]int]bool{} // {cond, taken}
	for _, r := range want {
		ops[r.Inst.Op] = true
		if r.Inst.Op == isa.Br {
			conds[[2]int{int(r.Inst.Cond), int(btoi(r.Taken))}] = true
		}
	}
	for op := isa.Nop; op <= isa.Halt; op++ {
		if !ops[op] {
			t.Errorf("%v never executed", op)
		}
	}
	for c := isa.EQZ; c <= isa.GER; c++ {
		if !conds[[2]int{int(c), 0}] || !conds[[2]int{int(c), 1}] {
			t.Errorf("%v not executed both taken and not taken", c)
		}
	}
}

func btoi(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// edgeImms are the immediates raw fuzz programs draw from besides small
// values: shift amounts around 64, page-sized offsets and the extremes.
var edgeImms = []int64{0, 1, -1, 8, 63, 64, 65, -4096, 4096, math.MinInt64, math.MaxInt64}

// rawProgram decodes fuzz bytes, seven per instruction, into a program of
// at most 64 arbitrary instructions over every Op, Cond and register,
// with branch and jump targets inside the program, followed by a Halt.
// The seed picks the initial registers: small word offsets and arbitrary
// 64-bit values.
func rawProgram(seed uint64, code []byte) ([]isa.Instruction, [isa.NumRegs]int64) {
	const width = 7
	n := min((len(code)+width-1)/width, 64)
	p := make([]isa.Instruction, n+1)
	for i := 0; i < n; i++ {
		var c [width]byte
		copy(c[:], code[i*width:])
		imm := int64(c[5]&0x7F) - 64
		if c[5]&0x80 != 0 {
			imm = edgeImms[int(c[5]&0x7F)%len(edgeImms)]
		}
		p[i] = isa.Instruction{
			Op:     isa.Op(c[0] % byte(isa.Halt+1)),
			Cond:   isa.Cond(c[1] % byte(isa.GER+1)),
			Rd:     isa.Reg(c[2] % isa.NumRegs),
			Rs1:    isa.Reg(c[3] % isa.NumRegs),
			Rs2:    isa.Reg(c[4] % isa.NumRegs),
			Imm:    imm,
			Target: int(c[6]) % (n + 1),
		}
	}
	p[n] = isa.Instruction{Op: isa.Halt}
	var regs [isa.NumRegs]int64
	x := seed
	for r := range regs {
		x = x*6364136223846793005 + 1442695040888963407
		regs[r] = int64(x)
		if r%2 == 0 {
			regs[r] = int64(x>>58) * 8
		}
	}
	return p, regs
}

// FuzzInterpreter runs fuzz-derived programs under a step cap through the
// execution loop and the reference interpreter (checkLockstep), and fails
// on any difference. With no code bytes
// the program is difftest.Generate's for the seed; otherwise the bytes
// decode into a raw program (rawProgram), capped at fewer steps because
// its stores may each touch a new page.
func FuzzInterpreter(f *testing.F) {
	f.Add(uint64(1), []byte(nil))
	f.Add(uint64(42), []byte(nil))
	f.Add(uint64(7), []byte{
		byte(isa.MovI), 0, 1, 0, 0, 0x80 | 9, 0, // r1 = MinInt64
		byte(isa.MovI), 0, 2, 0, 0, 0x80 | 2, 0, // r2 = -1
		byte(isa.Div), 0, 3, 1, 2, 0, 0,
		byte(isa.Shl), 0, 4, 2, 6, 0, 0,
		byte(isa.Store), 0, 0, 2, 3, 0x80 | 7, 0,
		byte(isa.Load), 0, 5, 2, 0, 0x80 | 7, 0,
		byte(isa.Br), byte(isa.LTR), 0, 2, 5, 0, 0,
	})
	f.Fuzz(func(t *testing.T, seed uint64, code []byte) {
		if len(code) == 0 {
			asm, err := difftest.Assemble(difftest.Generate(seed, difftest.DefaultGenConfig()))
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			checkLockstep(t, asm.Insts, asm.Mem, [isa.NumRegs]int64{}, asm.StepBound)
			return
		}
		p, regs := rawProgram(seed, code)
		checkLockstep(t, p, isa.NewMemory(), regs, 2_000)
	})
}
