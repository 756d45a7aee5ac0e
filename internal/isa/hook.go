package isa

import "hash/fnv"

// RunHook observes the architectural effect of each executed instruction
// during RunHooked. The StepResult is reused between calls: hooks must copy
// anything they keep.
type RunHook func(res *StepResult)

// RunHooked is Run with a per-instruction observer; callers that pass a
// nil hook get plain Run behaviour.
func (s *ArchState) RunHooked(prog []Instruction, maxSteps int64, hook RunHook) (steps int64, halted bool) {
	if hook == nil {
		return s.Run(prog, maxSteps)
	}
	// One instruction per exec call: a hook called from inside exec would
	// make the StepResult of every Step escape to the heap.
	var res StepResult
	for steps < maxSteps {
		s.exec(prog, 1, nil, false, &res)
		steps++
		hook(&res)
		if res.Halted {
			return steps, true
		}
	}
	return steps, false
}

// Fingerprint returns a stable 64-bit hash of the ISA definition: register
// count, opcode and condition vocabularies, per-op operand metadata and
// execution latencies. Trace files embed it so a trace recorded under one
// ISA revision is rejected — instead of silently misdecoded — by another.
func Fingerprint() uint64 {
	h := fnv.New64a()
	u8 := func(b byte) { h.Write([]byte{b}) }
	str := func(s string) { h.Write([]byte(s)); u8(0) }

	str("acb-isa")
	u8(NumRegs)
	u8(byte(numOps))
	u8(byte(numConds))
	for op := Op(0); op < numOps; op++ {
		str(op.String())
		u8(btoi(opHasDest[op]))
		u8(opNSrc[op])
		in := Instruction{Op: op}
		u8(byte(in.ExecLatency()))
	}
	for c := Cond(0); c < numConds; c++ {
		str(c.String())
		u8(btoi(c.UsesRs2()))
	}
	return h.Sum64()
}

func btoi(b bool) byte {
	if b {
		return 1
	}
	return 0
}
