package isa

import (
	"fmt"
	"sort"
)

// Memory is a sparse functional memory of whole 64-bit words addressed by
// byte address (the low three address bits are ignored; the timing model
// uses full byte addresses for cache indexing). Snapshots taken with
// CloneCOW share pages copy-on-write, so checkpointing a multi-MB image
// costs one map copy instead of a byte copy.
type Memory struct {
	pages map[int64]*[pageWords]int64
	// owned tracks the pages this memory may write in place. nil means
	// every page is exclusively owned (a memory that never took part in a
	// CloneCOW — the common case, with no per-store map lookup beyond it).
	// Non-nil means pages absent from the set are shared with a COW
	// sibling and must be copied before the first write.
	owned map[int64]struct{}
}

const (
	pageShift = 12 // 4 KiB pages
	pageBytes = 1 << pageShift
	pageWords = pageBytes / 8
)

// NewMemory returns an empty memory; all words read as zero.
func NewMemory() *Memory {
	return &Memory{pages: make(map[int64]*[pageWords]int64)}
}

// Load reads the 64-bit word containing byte address addr.
//
// The page key is the arithmetic shift addr>>pageShift (floor division),
// so the in-page offset must be the masked remainder addr&(pageBytes-1):
// a signed addr%pageBytes is negative for negative addresses and indexed
// the page with a negative slice offset.
func (m *Memory) Load(addr int64) int64 {
	page, ok := m.pages[addr>>pageShift]
	if !ok {
		return 0
	}
	return page[(addr&(pageBytes-1))/8]
}

// Store writes the 64-bit word containing byte address addr.
func (m *Memory) Store(addr, val int64) {
	idx := addr >> pageShift
	page, ok := m.pages[idx]
	if !ok {
		page = new([pageWords]int64)
		m.pages[idx] = page
		if m.owned != nil {
			m.owned[idx] = struct{}{}
		}
	} else if m.owned != nil {
		if _, own := m.owned[idx]; !own {
			cp := *page
			page = &cp
			m.pages[idx] = page
			m.owned[idx] = struct{}{}
		}
	}
	page[(addr&(pageBytes-1))/8] = val
}

// Clone returns a deep copy of the memory.
func (m *Memory) Clone() *Memory {
	c := NewMemory()
	for idx, page := range m.pages {
		cp := *page
		c.pages[idx] = &cp
	}
	return c
}

// CloneCOW returns a copy-on-write snapshot: the clone shares every page
// with the receiver, and whichever side writes a shared page first copies
// it privately. O(resident pages) map work instead of O(bytes), which is
// what makes per-window checkpointing affordable for multi-MB footprints.
//
// Taking the snapshot marks all of the receiver's pages shared, so it
// briefly mutates the receiver; concurrent CloneCOW calls are safe only on
// a memory that is never stored to after its own snapshot was taken (e.g.
// a Checkpoint's frozen image, whose owned set stays empty).
func (m *Memory) CloneCOW() *Memory {
	c := &Memory{
		pages: make(map[int64]*[pageWords]int64, len(m.pages)),
		owned: make(map[int64]struct{}),
	}
	for idx, page := range m.pages {
		c.pages[idx] = page
	}
	if m.owned == nil {
		m.owned = make(map[int64]struct{})
	} else if len(m.owned) > 0 {
		clear(m.owned)
	}
	return c
}

// Footprint returns the number of resident pages (for tests/diagnostics).
func (m *Memory) Footprint() int { return len(m.pages) }

// Equal reports whether the two memories hold identical word contents.
// Absent pages compare as zero, so a memory with an all-zero resident page
// equals one where the page was never touched.
func (m *Memory) Equal(o *Memory) bool { return len(m.DiffWords(o, 1)) == 0 }

// MemDiff is one differing word between two memories.
type MemDiff struct {
	Addr int64 // byte address of the word
	A, B int64 // the two values (A from the receiver, B from the argument)
}

// DiffWords returns up to max differing words between m and o in ascending
// address order (all of them when max <= 0). Absent pages read as zero.
func (m *Memory) DiffWords(o *Memory, max int) []MemDiff {
	idxSet := make(map[int64]struct{}, len(m.pages)+len(o.pages))
	for idx := range m.pages {
		idxSet[idx] = struct{}{}
	}
	for idx := range o.pages {
		idxSet[idx] = struct{}{}
	}
	idxs := make([]int64, 0, len(idxSet))
	for idx := range idxSet {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })

	var zero [pageWords]int64
	var out []MemDiff
	for _, idx := range idxs {
		pa, pb := m.pages[idx], o.pages[idx]
		if pa == pb {
			continue // COW-shared (or both absent): identical by construction
		}
		if pa == nil {
			pa = &zero
		}
		if pb == nil {
			pb = &zero
		}
		for w := 0; w < pageWords; w++ {
			if pa[w] != pb[w] {
				out = append(out, MemDiff{Addr: idx<<pageShift + int64(w)*8, A: pa[w], B: pb[w]})
				if max > 0 && len(out) >= max {
					return out
				}
			}
		}
	}
	return out
}

// ArchState is the complete architectural state of the machine.
type ArchState struct {
	PC   int
	Regs [NumRegs]int64
	Mem  *Memory
}

// NewArchState returns a reset architectural state with the given memory
// image (nil allocates an empty memory).
func NewArchState(mem *Memory) *ArchState {
	if mem == nil {
		mem = NewMemory()
	}
	return &ArchState{Mem: mem}
}

// StepResult describes the architectural effect of executing one
// instruction.
type StepResult struct {
	Inst     *Instruction
	PC       int   // PC of the executed instruction
	NextPC   int   // PC of the next instruction
	Taken    bool  // for branches: whether the branch was taken
	EffAddr  int64 // for loads/stores: effective address
	Value    int64 // destination value (loads/ALU) or stored value
	Halted   bool  // instruction was Halt
	HasValue bool  // Value holds a destination write
}

// Step functionally executes the instruction at the current PC and advances
// the state. It returns the architectural effects of the instruction.
func (s *ArchState) Step(prog []Instruction) StepResult {
	var res StepResult
	s.exec(prog, 1, nil, false, &res)
	return res
}

// Run executes until Halt or until maxSteps instructions have retired,
// returning the number of instructions executed and whether the program
// halted.
func (s *ArchState) Run(prog []Instruction, maxSteps int64) (steps int64, halted bool) {
	_, steps, halted = s.exec(prog, maxSteps, nil, false, nil)
	return steps, halted
}

// exec is the interpreter: the one execution loop behind Step, Run,
// RunEvents and RunHooked. It executes until Halt or until maxSteps
// instructions have executed. With record it also appends one Event per
// conditional branch, load and store to events, and stops once events is
// full without ever growing it. With res it describes each instruction in
// res; Step runs one instruction this way, and RunHooked one per call.
//
// The PC lives in a local and is written back before exec returns or
// panics on an out-of-range PC; the registers are reached through a local
// pointer (a local copy of the register file ran the loop no faster and
// doubled the cost of Step, which copied it in and out on every call).
func (s *ArchState) exec(prog []Instruction, maxSteps int64, events []Event, record bool,
	res *StepResult) (_ []Event, steps int64, halted bool) {
	pc, regs, m := s.PC, &s.Regs, s.Mem
	for steps < maxSteps {
		limit := maxSteps
		if record {
			// Each instruction adds at most one event, so the batch
			// cannot fill before room more steps.
			room := int64(cap(events) - len(events))
			if room == 0 {
				break
			}
			limit = min(limit, steps+room)
		}
		for ; steps < limit; steps++ {
			if uint(pc) >= uint(len(prog)) {
				s.PC = pc
				panic(fmt.Sprintf("isa: PC %d out of range [0,%d)", pc, len(prog)))
			}
			in := &prog[pc]
			next := pc + 1
			var addr, val int64
			var taken bool
			switch in.Op {
			case Load:
				addr = regs[in.Rs1] + in.Imm
				val = m.Load(addr)
				regs[in.Rd] = val
				if record {
					events = append(events, Event{Addr: addr, Op: Load})
				}
			case Store:
				addr, val = regs[in.Rs1]+in.Imm, regs[in.Rs2]
				m.Store(addr, val)
				if record {
					events = append(events, Event{Addr: addr, Op: Store})
				}
			case Br:
				// Z conditions ignore the second operand.
				taken = in.Cond.Eval(regs[in.Rs1], regs[in.Rs2])
				if taken {
					next = in.Target
				}
				if record {
					events = append(events, Event{Addr: int64(pc), Op: Br, Taken: taken})
				}
			case Jmp:
				taken, next = true, in.Target
			case Halt:
				s.PC = pc
				if res != nil {
					*res = StepResult{Inst: in, PC: pc, NextPC: pc, Halted: true}
				}
				return events, steps + 1, true
			// AddI, AndI, MovI and Add, two thirds of the instructions the
			// sampled-long programs execute, are inlined from ALUResult;
			// the lock-step tests pin them to it.
			case AddI:
				val = regs[in.Rs1] + in.Imm
				regs[in.Rd] = val
			case AndI:
				val = regs[in.Rs1] & in.Imm
				regs[in.Rd] = val
			case MovI:
				val = in.Imm
				regs[in.Rd] = val
			case Add:
				val = regs[in.Rs1] + regs[in.Rs2]
				regs[in.Rd] = val
			case Nop:
			default:
				// An op ignores the operand fields it does not use, which
				// hold valid registers, so reading both is harmless.
				val = in.ALUResult(regs[in.Rs1], regs[in.Rs2])
				regs[in.Rd] = val
			}
			if res != nil {
				// Field by field: a composite literal is built on the
				// stack and copied, which made Step several ns slower.
				res.Inst, res.PC, res.NextPC, res.Taken = in, pc, next, taken
				res.EffAddr, res.Value, res.Halted, res.HasValue = addr, val, false, opHasDest[in.Op]
			}
			pc = next
		}
	}
	s.PC = pc
	return events, steps, false
}
