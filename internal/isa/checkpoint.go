package isa

// Checkpoint is a cheap architectural snapshot of the functional emulator:
// the complete register file, the program counter, a copy-on-write memory
// snapshot, and the number of instructions retired to reach it. It is
// everything a detailed core needs to start simulating mid-program
// (ooo.NewFromCheckpoint), which is what makes SMARTS-style sampled
// simulation possible: fast-forward functionally, checkpoint, and hand
// disjoint windows to parallel workers. The snapshot's Mem is frozen —
// consumers must CloneCOW it, never store into it — which is what makes
// concurrent window jobs over one checkpoint safe.
type Checkpoint struct {
	PC      int
	Regs    [NumRegs]int64
	Mem     *Memory
	Retired int64
}

// Checkpoint captures the state's architectural snapshot. retired is the
// instruction count the caller has executed to reach this state; it rides
// along so window schedulers can place the checkpoint on the instruction
// axis.
func (s *ArchState) Checkpoint(retired int64) *Checkpoint {
	return &Checkpoint{PC: s.PC, Regs: s.Regs, Mem: s.Mem.CloneCOW(), Retired: retired}
}

// Restore returns a fresh ArchState positioned at the checkpoint. The
// state's memory is a copy-on-write snapshot of the checkpoint's, so its
// writes never reach the checkpoint (or any sibling restored from it).
func (ck *Checkpoint) Restore() *ArchState {
	st := NewArchState(ck.Mem.CloneCOW())
	st.PC = ck.PC
	st.Regs = ck.Regs
	return st
}

// Event is one architectural event that functional warming consumes: a
// conditional branch outcome (Op Br, Addr its PC) or a load/store
// effective address (Op Load or Store).
type Event struct {
	Addr  int64
	Op    Op
	Taken bool
}

// RunEvents executes like Run until Halt, until maxSteps instructions have
// executed, or until events is full, appending one Event per conditional
// branch, load and store. It never grows events: the caller passes a batch
// with spare capacity and, when it comes back full, hands it on and
// resumes with an empty one. Each instruction adds at most one event, so
// a run cut into any number of calls yields the same concatenated events,
// final state and step count as one uninterrupted call.
func (s *ArchState) RunEvents(prog []Instruction, maxSteps int64, events []Event) (out []Event, steps int64, halted bool) {
	return s.exec(prog, maxSteps, events, true, nil)
}
