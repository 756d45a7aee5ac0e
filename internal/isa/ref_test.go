package isa

import "fmt"

// RefStep is the reference interpreter the lock-step tests
// (lockstep_test.go) pin the execution loop against: the original
// per-instruction step, kept as it was, with memory reached through the
// Mem interface and every ALU op through ALUResult.
func (s *ArchState) RefStep(prog []Instruction, res *StepResult) {
	if s.PC < 0 || s.PC >= len(prog) {
		panic(fmt.Sprintf("isa: PC %d out of range [0,%d)", s.PC, len(prog)))
	}
	in := &prog[s.PC]
	*res = StepResult{Inst: in, PC: s.PC, NextPC: s.PC + 1}
	switch in.Op {
	case Nop:
	case Halt:
		res.Halted = true
		res.NextPC = s.PC
	case Load:
		res.EffAddr = s.Regs[in.Rs1] + in.Imm
		res.Value = s.Mem.Load(res.EffAddr)
		res.HasValue = true
		s.Regs[in.Rd] = res.Value
	case Store:
		res.EffAddr = s.Regs[in.Rs1] + in.Imm
		res.Value = s.Regs[in.Rs2]
		s.Mem.Store(res.EffAddr, res.Value)
	case Br:
		a := s.Regs[in.Rs1]
		var b int64
		if in.Cond.UsesRs2() {
			b = s.Regs[in.Rs2]
		}
		res.Taken = in.Cond.Eval(a, b)
		if res.Taken {
			res.NextPC = in.Target
		}
	case Jmp:
		res.Taken = true
		res.NextPC = in.Target
	default:
		var a, b int64
		switch in.NumSources() {
		case 2:
			a, b = s.Regs[in.Rs1], s.Regs[in.Rs2]
		case 1:
			a = s.Regs[in.Rs1]
		}
		res.Value = in.ALUResult(a, b)
		res.HasValue = true
		s.Regs[in.Rd] = res.Value
	}
	s.PC = res.NextPC
}
