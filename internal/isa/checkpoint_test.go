package isa

import "testing"

// TestMemoryNegativeAddresses is the regression test for the signed-offset
// bug: the page key uses arithmetic shift (floor), so the in-page offset
// must be the masked remainder — addr%pageBytes is negative for negative
// addresses and indexed the page slice at a negative offset (panic).
func TestMemoryNegativeAddresses(t *testing.T) {
	m := NewMemory()
	addrs := []int64{
		-8,                        // last word of page -1
		-pageBytes,                // first word of page -1
		-pageBytes - 8,            // last word of page -2
		-3 * pageBytes,            // deeper negative page
		-1,                        // unaligned negative (word -8)
		-pageBytes + 5,            // unaligned within page -1
		0, 8, pageBytes, -8 << 20, // mixed positives and a far-negative
	}
	for i, a := range addrs {
		want := int64(0x1000 + i)
		m.Store(a, want)
		if got := m.Load(a); got != want {
			t.Errorf("Load(%#x) = %#x, want %#x", a, got, want)
		}
	}
	// Unaligned addresses within the same word must alias.
	m.Store(-16, 42)
	if got := m.Load(-16 + 7); got != 42 {
		t.Errorf("Load(-9) = %d, want 42 (same word as -16)", got)
	}

	// Clone / Equal / DiffWords must agree across negative pages.
	c := m.Clone()
	if !m.Equal(c) {
		t.Fatalf("clone not equal to original")
	}
	c.Store(-pageBytes, 999)
	diffs := m.DiffWords(c, 0)
	if len(diffs) != 1 || diffs[0].Addr != -pageBytes || diffs[0].B != 999 {
		t.Fatalf("DiffWords across negative page = %+v, want one diff at %#x", diffs, int64(-pageBytes))
	}
	if m.Equal(c) {
		t.Fatalf("Equal missed a negative-page diff")
	}
}

func TestCheckpointRestoreIsDeep(t *testing.T) {
	st := NewArchState(nil)
	st.PC = 7
	st.Regs[R3] = 99
	st.Mem.Store(0x1000, 11)
	st.Mem.Store(-0x2000, 22)

	ck := st.Checkpoint(123)
	if ck.Retired != 123 || ck.PC != 7 || ck.Regs[R3] != 99 {
		t.Fatalf("checkpoint = %+v", ck)
	}

	// Mutating the source after the checkpoint must not leak in.
	st.Mem.Store(0x1000, 77)
	st.Regs[R3] = 0

	re := ck.Restore()
	if re.PC != 7 || re.Regs[R3] != 99 {
		t.Fatalf("restore = PC %d regs %v", re.PC, re.Regs)
	}
	if got := re.Mem.Load(0x1000); got != 11 {
		t.Errorf("restored mem[0x1000] = %d, want 11 (pre-mutation)", got)
	}
	if got := re.Mem.Load(-0x2000); got != 22 {
		t.Errorf("restored mem[-0x2000] = %d, want 22", got)
	}
	// And the restored state must not alias the checkpoint either.
	re.Mem.Store(-0x2000, 1)
	if ck.Mem.Load(-0x2000) != 22 {
		t.Errorf("restore aliases checkpoint memory")
	}
}

func TestRunEventsBatchBoundaries(t *testing.T) {
	// r1 counts down from 3; loop body does a load and a store.
	prog := []Instruction{
		{Op: MovI, Rd: R1, Imm: 3},
		{Op: Load, Rd: R2, Rs1: R1, Imm: 0x100},   // pc 1
		{Op: Store, Rs1: R1, Rs2: R2, Imm: 0x200}, // pc 2
		{Op: AddI, Rd: R1, Rs1: R1, Imm: -1},      // pc 3
		{Op: Br, Rs1: R1, Cond: NEZ, Target: 1},   // pc 4
		{Op: Halt},
	}
	ref := NewArchState(nil)
	refSteps, refHalted := ref.Run(prog, 1000)
	// 3 iterations: a load and a store per iteration, the branch taken
	// twice then not taken.
	want := []Event{
		{Addr: 0x103, Op: Load}, {Addr: 0x203, Op: Store}, {Addr: 4, Op: Br, Taken: true},
		{Addr: 0x102, Op: Load}, {Addr: 0x202, Op: Store}, {Addr: 4, Op: Br, Taken: true},
		{Addr: 0x101, Op: Load}, {Addr: 0x201, Op: Store}, {Addr: 4, Op: Br},
	}

	if _, steps, _ := NewArchState(nil).RunEvents(prog, 1000, nil); steps != 0 {
		t.Errorf("RunEvents with no room for events executed %d steps, want 0", steps)
	}

	for _, tc := range []struct {
		name     string
		capacity int
		maxSteps int64 // per call
	}{
		{"one call halts mid-batch", 64, 1000},
		{"one event per batch", 1, 1000},
		{"last batch halts mid-batch", 2, 1000},
		{"halt after a full batch", 3, 1000},
		{"step-limited calls", 4, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := NewArchState(nil)
			var got []Event
			var steps, fullStops int64
			halted := false
			batch := make([]Event, 0, tc.capacity)
			for calls := 0; !halted && calls < 100; calls++ {
				var n int64
				batch, n, halted = st.RunEvents(prog, tc.maxSteps, batch[:0])
				steps += n
				got = append(got, batch...)
				if !halted && len(batch) == cap(batch) {
					fullStops++
				}
			}
			if steps != refSteps || halted != refHalted {
				t.Fatalf("RunEvents = (%d,%v), Run = (%d,%v)", steps, halted, refSteps, refHalted)
			}
			if st.PC != ref.PC || st.Regs != ref.Regs {
				t.Fatalf("RunEvents state diverged from Run")
			}
			if len(got) != len(want) {
				t.Fatalf("events = %+v, want %+v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("event %d = %+v, want %+v", i, got[i], want[i])
				}
			}
			if tc.capacity < len(want) && fullStops == 0 {
				t.Errorf("capacity %d: no call stopped at a full batch", tc.capacity)
			}
		})
	}
}
