package isa

import (
	"testing"
	"testing/quick"
)

func TestMemoryZeroDefault(t *testing.T) {
	m := NewMemory()
	if m.Load(0x1234) != 0 {
		t.Error("fresh memory not zero")
	}
	if m.Footprint() != 0 {
		t.Error("reads must not allocate pages")
	}
}

func TestMemoryStoreLoad(t *testing.T) {
	m := NewMemory()
	m.Store(0x1000, 42)
	if got := m.Load(0x1000); got != 42 {
		t.Fatalf("load = %d, want 42", got)
	}
	// Word granularity: any address within the word aliases.
	if got := m.Load(0x1007); got != 42 {
		t.Fatalf("unaligned load within word = %d, want 42", got)
	}
	m.Store(0x1008, 7)
	if got := m.Load(0x1000); got != 42 {
		t.Fatalf("neighbour write clobbered word: %d", got)
	}
}

// TestMemoryRoundTrip: store-then-load returns the value for arbitrary
// addresses and values (property-based).
func TestMemoryRoundTrip(t *testing.T) {
	m := NewMemory()
	f := func(addr, val int64) bool {
		if addr < 0 {
			addr = -addr
		}
		m.Store(addr, val)
		return m.Load(addr) == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryClone(t *testing.T) {
	m := NewMemory()
	m.Store(8, 1)
	c := m.Clone()
	c.Store(8, 2)
	m.Store(16, 3)
	if m.Load(8) != 1 || c.Load(8) != 2 {
		t.Error("clone shares word storage")
	}
	if c.Load(16) != 0 {
		t.Error("clone sees post-clone writes")
	}
}

func TestStepArithmeticAndControl(t *testing.T) {
	prog := []Instruction{
		{Op: MovI, Rd: R1, Imm: 5},
		{Op: MovI, Rd: R2, Imm: 3},
		{Op: Add, Rd: R3, Rs1: R1, Rs2: R2},
		{Op: Br, Cond: EQR, Rs1: R3, Rs2: R3, Target: 5},
		{Op: MovI, Rd: R4, Imm: 111}, // skipped
		{Op: Halt},
	}
	st := NewArchState(nil)
	steps, halted := st.Run(prog, 100)
	if !halted {
		t.Fatal("did not halt")
	}
	if steps != 5 {
		t.Fatalf("steps = %d, want 5", steps)
	}
	if st.Regs[R3] != 8 {
		t.Fatalf("r3 = %d, want 8", st.Regs[R3])
	}
	if st.Regs[R4] != 0 {
		t.Fatal("branch did not skip")
	}
}

func TestStepMemoryOps(t *testing.T) {
	prog := []Instruction{
		{Op: MovI, Rd: R1, Imm: 0x2000},
		{Op: MovI, Rd: R2, Imm: 77},
		{Op: Store, Rs1: R1, Rs2: R2, Imm: 16},
		{Op: Load, Rd: R3, Rs1: R1, Imm: 16},
		{Op: Halt},
	}
	st := NewArchState(nil)
	if _, halted := st.Run(prog, 100); !halted {
		t.Fatal("did not halt")
	}
	if st.Regs[R3] != 77 {
		t.Fatalf("r3 = %d, want 77", st.Regs[R3])
	}
	if st.Mem.Load(0x2010) != 77 {
		t.Fatal("store not applied to memory")
	}
}

func TestStepResultFields(t *testing.T) {
	prog := []Instruction{
		{Op: Br, Cond: EQZ, Rs1: R0, Target: 3},
		{Op: Nop},
		{Op: Nop},
		{Op: Halt},
	}
	st := NewArchState(nil)
	res := st.Step(prog)
	if !res.Taken || res.NextPC != 3 {
		t.Fatalf("branch step: taken=%v next=%d", res.Taken, res.NextPC)
	}
	res = st.Step(prog)
	if !res.Halted {
		t.Fatal("halt not reported")
	}
	if st.PC != 3 {
		t.Fatal("halt must not advance PC")
	}
}

func TestRunBudget(t *testing.T) {
	prog := []Instruction{
		{Op: AddI, Rd: R1, Rs1: R1, Imm: 1},
		{Op: Jmp, Target: 0},
	}
	st := NewArchState(nil)
	steps, halted := st.Run(prog, 1000)
	if halted {
		t.Fatal("infinite loop cannot halt")
	}
	if steps != 1000 {
		t.Fatalf("steps = %d, want 1000", steps)
	}
	if st.Regs[R1] != 500 {
		t.Fatalf("r1 = %d, want 500", st.Regs[R1])
	}
}

func TestStepOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range PC")
		}
	}()
	st := NewArchState(nil)
	st.PC = 5
	st.Step([]Instruction{{Op: Nop}})
}
