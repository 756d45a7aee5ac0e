package isa

import (
	"fmt"
	"slices"
)

// Memory is a sparse functional memory of whole 64-bit words addressed by
// byte address (the low three address bits are ignored; the timing model
// uses full byte addresses for cache indexing).
//
// It is a flat page table. A page whose index lies in [0, densePages), the
// first 64 MiB where every suite image lives, sits in a slice indexed by
// page number and grown on demand to the highest such page stored to, so
// Load is a bounds check and a pointer load. Only pages outside that range
// (negative addresses, or addresses far beyond it, which fuzzed programs
// and traces can reach) stay in a map.
//
// Snapshots taken with CloneCOW share pages copy-on-write. Each slot has an
// ownership bit, set only while this memory alone holds the page and so may
// write it in place: a Store to an owned page costs one flag check, and the
// first Store to a shared page copies it and sets the bit. CloneCOW copies
// the table with every bit clear and clears the receiver's bits, so
// checkpointing a multi-MB image costs a table copy instead of a byte copy.
type Memory struct {
	dense []slot         // page i at dense[i], for i < densePages
	far   map[int64]slot // every resident page outside the dense range
	owned int            // slots whose ownership bit is set
}

// slot is one page-table entry. own means the memory may write p in
// place; it implies p != nil.
type slot struct {
	p   *page
	own bool
}

type page = [pageWords]int64

const (
	// PageShift is log2 of PageBytes.
	PageShift = 12
	// PageBytes is the page size: the unit a memory allocates, copies on
	// write and shares between snapshots.
	PageBytes = 1 << PageShift
	pageWords = PageBytes / 8
	// densePages bounds the dense table (64 MiB of address space). The
	// suite's pages all lie below (chase table base + 16 MiB) >> PageShift
	// = 6144; a table grown to its bound costs 256 KiB per memory.
	densePages = 1 << 14
)

// NewMemory returns an empty memory; all words read as zero.
func NewMemory() *Memory { return &Memory{} }

// Load reads the 64-bit word containing byte address addr.
//
// The page index is the arithmetic shift addr>>PageShift (floor division),
// so the in-page word index must be masked bits, addr>>3&(pageWords-1): a
// signed remainder would be negative for negative addresses. The mask also
// lets the compiler drop the page's bounds check.
func (m *Memory) Load(addr int64) int64 {
	if p := m.pageAt(addr >> PageShift); p != nil {
		return p[addr>>3&(pageWords-1)]
	}
	return 0
}

// pageAt returns page idx, or nil if it is absent. A page past the dense
// table's length can only be in the map.
func (m *Memory) pageAt(idx int64) *page {
	if uint64(idx) < uint64(len(m.dense)) {
		return m.dense[idx].p
	}
	return m.far[idx].p
}

// Store writes the 64-bit word containing byte address addr.
func (m *Memory) Store(addr, val int64) {
	if idx := addr >> PageShift; uint64(idx) < uint64(len(m.dense)) && m.dense[idx].own {
		m.dense[idx].p[addr>>3&(pageWords-1)] = val
		return
	}
	m.storeSlow(addr, val)
}

// storeSlow is Store to a page m does not own yet: it grows the dense
// table to reach a dense page, and takes ownership of the page's slot
// before writing.
func (m *Memory) storeSlow(addr, val int64) {
	idx := addr >> PageShift
	var p *page
	if uint64(idx) < densePages {
		if n := int(idx) + 1; n > len(m.dense) {
			m.dense = append(m.dense, make([]slot, n-len(m.dense))...)
		}
		p = m.own(&m.dense[idx])
	} else {
		s := m.far[idx]
		if !s.own {
			if m.far == nil {
				m.far = make(map[int64]slot)
			}
			m.own(&s)
			m.far[idx] = s
		}
		p = s.p
	}
	p[addr>>3&(pageWords-1)] = val
}

// own makes s's page private to m: a fresh zero page if s is empty, a
// copy if the page is shared with a COW sibling.
func (m *Memory) own(s *slot) *page {
	if !s.own {
		p := new(page)
		if s.p != nil {
			*p = *s.p
		}
		*s = slot{p: p, own: true}
		m.owned++
	}
	return s.p
}

// Clone returns a deep copy of the memory.
func (m *Memory) Clone() *Memory {
	c := &Memory{dense: make([]slot, len(m.dense))}
	for i, s := range m.dense {
		if s.p != nil {
			*c.own(&c.dense[i]) = *s.p
		}
	}
	if len(m.far) > 0 {
		c.far = make(map[int64]slot, len(m.far))
		for idx, s := range m.far {
			var cs slot
			*c.own(&cs) = *s.p
			c.far[idx] = cs
		}
	}
	return c
}

// CloneCOW returns a copy-on-write snapshot: the clone shares every page
// with the receiver, and whichever side writes a shared page first copies
// it privately. It copies the page table, O(table length) pointer copies
// instead of O(bytes), which is what makes per-window checkpointing
// affordable for multi-MB footprints.
//
// Taking the snapshot clears the receiver's ownership bits, so it writes
// to the receiver only if the receiver owns a page. A memory that owns
// none, such as a Checkpoint's frozen image, is only read, so concurrent
// CloneCOW and Load calls on it are safe.
func (m *Memory) CloneCOW() *Memory {
	c := &Memory{dense: make([]slot, len(m.dense))}
	for i, s := range m.dense {
		c.dense[i].p = s.p
	}
	if len(m.far) > 0 {
		c.far = make(map[int64]slot, len(m.far))
		for idx, s := range m.far {
			c.far[idx] = slot{p: s.p}
		}
	}
	if m.owned > 0 {
		for i := range m.dense {
			m.dense[i].own = false
		}
		for idx, s := range m.far {
			m.far[idx] = slot{p: s.p}
		}
		m.owned = 0
	}
	return c
}

// Footprint returns the number of resident pages (for tests/diagnostics).
func (m *Memory) Footprint() int {
	n := len(m.far)
	for _, s := range m.dense {
		if s.p != nil {
			n++
		}
	}
	return n
}

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
	var out []MemDiff
	eachPage(m, o, func(idx int64, pa, pb *page) bool {
		if pa == pb {
			return true // COW-shared (or both absent): identical by construction
		}
		if pa == nil {
			pa = &zeroPage
		}
		if pb == nil {
			pb = &zeroPage
		}
		if *pa == *pb {
			return true
		}
		for w := range pa {
			if pa[w] != pb[w] {
				out = append(out, MemDiff{Addr: idx<<PageShift + int64(w)*8, A: pa[w], B: pb[w]})
				if max > 0 && len(out) >= max {
					return false
				}
			}
		}
		return true
	})
	return out
}

// Words calls yield with the address and value of every non-zero word in
// ascending address order, until yield returns false. Unlike
// DiffWords(NewMemory(), 0) it allocates nothing per word, so it streams
// a multi-MB image.
func (m *Memory) Words(yield func(addr, val int64) bool) {
	eachPage(m, m, func(idx int64, p, _ *page) bool {
		if p == nil {
			return true
		}
		for w, v := range p {
			if v != 0 && !yield(idx<<PageShift+int64(w)*8, v) {
				return false
			}
		}
		return true
	})
}

// eachPage calls f with every page index resident in a or b, ascending,
// and the two memories' pages there (nil where absent), until f returns
// false. It walks the negative far pages, the dense table, then the far
// pages above it: only far pages need sorting, and a memory without any
// (every suite image) sorts nothing.
func eachPage(a, b *Memory, f func(idx int64, pa, pb *page) bool) {
	far := farIndexes(a, b)
	k := 0
	for ; k < len(far) && far[k] < 0; k++ {
		if !f(far[k], a.pageAt(far[k]), b.pageAt(far[k])) {
			return
		}
	}
	n := int64(max(len(a.dense), len(b.dense)))
	for i := int64(0); i < n; i++ {
		if !f(i, a.pageAt(i), b.pageAt(i)) {
			return
		}
	}
	for ; k < len(far); k++ {
		if !f(far[k], a.pageAt(far[k]), b.pageAt(far[k])) {
			return
		}
	}
}

var zeroPage page

// farIndexes returns the far page indexes resident in a or b, ascending
// and without repeats.
func farIndexes(a, b *Memory) []int64 {
	if len(a.far)+len(b.far) == 0 {
		return nil
	}
	idxs := make([]int64, 0, len(a.far)+len(b.far))
	for idx := range a.far {
		idxs = append(idxs, idx)
	}
	for idx := range b.far {
		if _, dup := a.far[idx]; !dup {
			idxs = append(idxs, idx)
		}
	}
	slices.Sort(idxs)
	return idxs
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
