// Package workload provides the synthetic workload suite standing in for
// the paper's 70 traces (Table III). Each workload is a self-contained
// program + memory image targeting one class of branch behaviour the
// paper's evaluation depends on: dominant hard-to-predict convergent
// hammocks (lammps-like big winners), correlated branch pairs whose
// history predication destroys (omnetpp-like negative outliers),
// mispredictions shadowed by LLC misses (soplex-like flat outliers),
// predication-hostile bodies feeding long-latency loads (eembc/h264-like
// Dynamo targets), Type-1/2/3 convergence shapes, backward branches,
// non-convergent control flow, and predictable compute.
package workload

import (
	"fmt"

	"acb/internal/isa"
	"acb/internal/prog"
)

// HammockShape selects the static control-flow shape of a generated
// hammock (the paper's Fig. 3 types).
type HammockShape int

// Shapes.
const (
	ShapeIfOnly        HammockShape = iota // Type-1: IF without ELSE
	ShapeIfElse                            // Type-2: IF-ELSE with a skip jump
	ShapeType3                             // Type-3: taken path jumps back before the target
	ShapeNonConvergent                     // paths that do not reconverge within N
)

// Hammock describes one generated conditional hammock inside the loop.
type Hammock struct {
	Shape HammockShape
	// TLen and NTLen are the taken/not-taken body lengths in ALU
	// instructions (before shape-required jumps).
	TLen, NTLen int
	// TakenBias is the probability (0..1) that the branch is taken;
	// 0.5 with full-entropy data is maximally hard to predict.
	TakenBias float64
	// Noise is the probability that the outcome deviates from a short
	// repeating pattern: 0 makes the branch fully predictable, 1 makes it
	// purely biased-random.
	Noise float64
	// StoreInBody adds a store to the taken path.
	StoreInBody bool
	// FeedsLoad makes the hammock body compute the index of a load
	// consumed after reconvergence (the Sec. II-C3 critical-path
	// elongation pattern).
	FeedsLoad bool
	// CorrelatedTail emits a later branch perfectly correlated with this
	// hammock's condition, guarding a large non-predicable region
	// (the Sec. II-C2 pattern: predicating the hammock destroys the tail
	// branch's history correlation).
	CorrelatedTail bool
	// PatternTails emits this many later branches with deterministic
	// iteration patterns. With a stable global history their outcomes sit
	// at fixed history positions and TAGE predicts them; *mixed*
	// predication of the hammock (DMP's confidence-driven selection)
	// randomly removes history bits, shifting those positions and
	// thrashing the tables — the paper's Sec. V-C history-pollution
	// mechanism. ACB's consistent removal keeps positions fixed.
	PatternTails int
	// SlowCond derives the condition from the pointer-chase cursor (the
	// workload needs ChaseDepth >= 1): the branch both resolves late
	// (behind a likely LLC miss) and is unpredictable. Predicating it
	// serializes the body and everything after behind the slow load —
	// the paper's Sec. II-C3 critical-path-elongation pattern.
	SlowCond bool
	// FeedsChase makes the hammock body select the offset of the *next*
	// pointer-chase load (the loop-carried critical chain). Under
	// speculation the chase launches immediately down the predicted path;
	// under predication it waits for branch resolution every iteration —
	// the strongest form of the Sec. II-C3 inversion, hurting both ACB
	// (stall) and DMP (select-µop) until Dynamo throttles.
	FeedsChase bool
	// DualRecon gives the hammock two dynamic reconvergence points: most
	// not-taken instances skip to the near merge, but when a secondary
	// condition fires the control flow only re-joins at a farther merge.
	// Single-reconvergence ACB diverges on the far instances; the paper's
	// category-B1 discussion proposes learning multiple reconvergence
	// points (Sec. V-C), implemented here as core.Config.MultiRecon.
	DualRecon bool
	// TrainDiffers marks the branch data-dependent across inputs: the
	// profiling (compiler training) input uses TrainNoise instead of
	// Noise. The paper's recurring argument against compiler-assisted
	// predication: "training data-sets used by the compiler can be very
	// different from actual testing data" (Sec. II-B, V-C) — a branch
	// that looks predictable when profiled is never selected by DMP,
	// while ACB's run-time learning catches it.
	TrainDiffers bool
	TrainNoise   float64
}

// Spec composes a workload program.
type Spec struct {
	Name     string
	Iters    int64 // loop iterations
	Period   int64 // condition-table period (power of two)
	Seed     uint64
	Hammocks []Hammock
	// ChaseDepth adds a pointer-chase of this many dependent loads per
	// iteration over a working set of ChaseSpan bytes (drives LLC misses
	// and long-latency shadows).
	ChaseDepth int
	ChaseSpan  int64
	// ALU adds filler dependent ALU work per iteration.
	ALU int
	// PredictableLoops nests an inner predictable loop of this trip count
	// (naturally-converging loop branches).
	PredictableLoops int
}

const (
	condTableBase  = 0x10_0000 // per-hammock condition tables
	chaseTableBase = 0x80_0000
	scratchBase    = 0x4_0000
	dataTableBase  = 0x20_0000
)

// rng is a deterministic xorshift64 generator.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// Build generates the program and its initial memory image (the "actual
// execution" input).
func (s *Spec) Build() ([]isa.Instruction, *isa.Memory) {
	return s.build(false)
}

// BuildTrain generates the program with the profiling (compiler training)
// input: identical code, but hammocks marked TrainDiffers use their
// TrainNoise data distribution and the data seed differs.
func (s *Spec) BuildTrain() ([]isa.Instruction, *isa.Memory) {
	return s.build(true)
}

func (sp *Spec) build(train bool) ([]isa.Instruction, *isa.Memory) {
	s := sp.withDefaults()
	return s.program(), s.image(train)
}

// withDefaults returns a copy of the spec with its defaults filled in. A
// build must not write them back into the shared Spec, since the parallel
// experiment runner builds the same workload from several goroutines at
// once.
func (sp *Spec) withDefaults() Spec {
	s := *sp
	if s.Period == 0 {
		s.Period = 4096
	}
	if s.Iters == 0 {
		s.Iters = 100_000
	}
	return s
}

// image builds the memory image: the condition, chase and data tables,
// drawn from the input's seed.
func (s *Spec) image(train bool) *isa.Memory {
	seed := s.Seed
	if train {
		seed ^= 0x5DEECE66D
	}
	r := newRNG(seed)
	m := isa.NewMemory()

	// Every table is written whole through isa.Memory.WriteWords. The rng
	// draws and their order decide every image word (TestBuildGolden pins
	// them), so a faster loop must keep them.

	// Condition tables: one word per hammock per period slot, bit 0 = the
	// outcome. Pattern-based with noise so predictability is tunable.
	for h := range s.Hammocks {
		hm := &s.Hammocks[h]
		base := int64(condTableBase) + int64(h)*s.Period*8
		noise := hm.Noise
		if train && hm.TrainDiffers {
			noise = hm.TrainNoise
		}
		m.WriteWords(base, int(s.Period), func(words []int64) {
			for i := range words {
				bit := int64(i) >> uint(h%3) & 1 // short repeating pattern
				if r.float() < noise {
					if r.float() < hm.TakenBias {
						bit = 1
					} else {
						bit = 0
					}
				}
				filler := int64(r.next() & 0xFFFF)
				words[i] = bit | filler<<1
			}
		})
	}

	// Pointer-chase table: a random cycle over ChaseSpan bytes. Slot
	// perm[i] points at slot perm[i+1], and the last back at the first.
	if s.ChaseDepth > 0 {
		span := s.ChaseSpan
		if span == 0 {
			span = 1 << 20
		}
		link := func(to int32) int64 { return chaseTableBase + int64(to)*8 }
		m.WriteWords(chaseTableBase, int(span/8), func(slots []int64) {
			// The permutation is allocated after the table: the other way
			// round, its freed space could not hold a later 16 MiB table,
			// which fragmented the heap and raised peak RSS.
			perm := make([]int32, len(slots))
			for i := range perm {
				perm[i] = int32(i)
			}
			// Fisher-Yates from the top settles perm[i] at step i, so each
			// step links its slot to the one the step before settled.
			last := len(perm) - 1
			var succ int32
			for i := last; i > 0; i-- {
				j := r.next() % uint64(i+1)
				perm[i], perm[j] = perm[j], perm[i]
				if i < last {
					slots[perm[i]] = link(succ)
				}
				succ = perm[i]
			}
			slots[perm[0]] = link(succ)
			slots[perm[last]] = link(perm[0])
		})
	}

	// Data table for FeedsLoad hammocks.
	m.WriteWords(dataTableBase, 4096, func(words []int64) {
		for i := range words {
			words[i] = int64(r.next() & 0xFFFF)
		}
	})
	return m
}

// program emits the workload's code. It draws nothing from the rng, so
// the program is the same for every input.
func (s *Spec) program() []isa.Instruction {
	b := prog.NewBuilder()

	// Register conventions:
	//   r0  loop counter          r1  iteration limit
	//   r2  condition value       r3  chase cursor
	//   r4-r6 scratch             r7  accumulator
	//   r8  loop-compare scratch  r9  table index scratch
	//   r10-r13 hammock scratch   r14 inner-loop counter
	//   r15 data value
	b.MovI(isa.R0, 0)
	b.MovI(isa.R1, s.Iters)
	b.MovI(isa.R7, 0)
	b.MovI(isa.R3, chaseTableBase)

	b.Label("loop")

	// Pointer chase: dependent loads, each a potential LLC miss.
	for d := 0; d < s.ChaseDepth; d++ {
		b.Load(isa.R3, isa.R3, 0)
	}

	// Inner predictable loop.
	if s.PredictableLoops > 0 {
		b.MovI(isa.R14, int64(s.PredictableLoops))
		b.Label("inner")
		b.AddI(isa.R7, isa.R7, 1)
		b.AddI(isa.R14, isa.R14, -1)
		b.Brnz(isa.R14, "inner")
	}

	for h := range s.Hammocks {
		s.emitHammock(b, h, &s.Hammocks[h])
	}

	// Filler ALU work: short dependent chains round-robined over three
	// registers, so wider cores can extract parallelism across them.
	fillerRegs := []isa.Reg{isa.R7, isa.R12, isa.R15}
	for i := 0; i < s.ALU; i++ {
		r := fillerRegs[i%len(fillerRegs)]
		b.AddI(r, r, int64(i&7)+1)
	}

	b.AddI(isa.R0, isa.R0, 1)
	b.Sub(isa.R8, isa.R0, isa.R1)
	b.Brnz(isa.R8, "loop")
	b.Halt()
	return b.MustBuild()
}

// emitHammock emits one hammock: load its condition, branch, bodies per
// shape, reconvergence, and optional correlated tail.
func (s *Spec) emitHammock(b *prog.Builder, h int, hm *Hammock) {
	base := int64(condTableBase) + int64(h)*s.Period*8
	lbl := func(kind string) string { return fmt.Sprintf("h%d_%s", h, kind) }

	if hm.SlowCond {
		// Condition from the pointer-chase cursor: available only after
		// the chase load resolves (likely deep in the hierarchy), and
		// effectively random (bit 3 of a permuted address).
		b.ShrI(isa.R2, isa.R3, 3)
		b.AndI(isa.R10, isa.R2, 1)
		b.MovI(isa.R4, base) // scratch address for StoreInBody
	} else {
		// r2 = condition word; bit 0 decides.
		b.AndI(isa.R9, isa.R0, s.Period-1)
		b.MulI(isa.R9, isa.R9, 8)
		b.MovI(isa.R4, base)
		b.Add(isa.R4, isa.R4, isa.R9)
		b.Load(isa.R2, isa.R4, 0)
		b.AndI(isa.R10, isa.R2, 1)
	}

	emitBody := func(n int, reg isa.Reg, stride int64) {
		for i := 0; i < n; i++ {
			b.AddI(reg, reg, stride+int64(i))
		}
		if hm.FeedsChase {
			// Path-specific next-pointer field offset (both land on valid
			// chase slots: every word of the table holds a pointer).
			b.MovI(isa.R11, int64((stride&4)*2)) // taken(3)->0, not-taken(7)->8
		}
	}

	switch hm.Shape {
	case ShapeIfOnly:
		// brz taken -> skip body (target == reconvergence: Type-1).
		b.Brz(isa.R10, lbl("end"))
		emitBody(hm.NTLen, isa.R7, 3)
		if hm.StoreInBody {
			b.Store(isa.R4, 8*int64(s.Period), isa.R7)
		}
		if hm.FeedsLoad {
			b.AndI(isa.R11, isa.R7, 4095)
			b.MulI(isa.R11, isa.R11, 8)
		}
		b.Label(lbl("end"))

	case ShapeIfElse:
		b.Brz(isa.R10, lbl("else"))
		emitBody(hm.TLen, isa.R7, 3)
		if hm.StoreInBody {
			b.Store(isa.R4, 8*int64(s.Period), isa.R7)
		}
		if hm.FeedsLoad {
			b.AndI(isa.R11, isa.R7, 4095)
			b.MulI(isa.R11, isa.R11, 8)
		}
		b.Jmp(lbl("end"))
		b.Label(lbl("else"))
		emitBody(hm.NTLen, isa.R7, 7)
		if hm.FeedsLoad {
			b.AndI(isa.R11, isa.R2, 4095)
			b.MulI(isa.R11, isa.R11, 8)
		}
		if hm.DualRecon {
			// Secondary condition (bit 1 of the condition word): when it
			// fires, the not-taken path re-joins only at the far merge.
			b.ShrI(isa.R10, isa.R2, 1)
			b.AndI(isa.R10, isa.R10, 1)
			b.Brnz(isa.R10, lbl("far"))
		}
		b.Label(lbl("end"))
		if hm.DualRecon {
			// Near-merge tail shared by most instances.
			b.AddI(isa.R7, isa.R7, 1)
			b.AddI(isa.R7, isa.R7, 2)
			b.Label(lbl("far"))
			b.AddI(isa.R7, isa.R7, 4)
		}

	case ShapeType3:
		// Taken path lives after the not-taken path's fall-through region
		// and jumps back to the reconvergence point between branch and
		// target (Fig. 3, Type-3).
		b.Brnz(isa.R10, lbl("tpath"))
		emitBody(hm.NTLen, isa.R7, 7)
		b.Label(lbl("recon"))
		b.AddI(isa.R7, isa.R7, 1)
		b.Jmp(lbl("end"))
		b.Label(lbl("tpath"))
		emitBody(hm.TLen, isa.R7, 3)
		if hm.FeedsLoad {
			b.AndI(isa.R11, isa.R7, 4095)
			b.MulI(isa.R11, isa.R11, 8)
		}
		b.Jmp(lbl("recon"))
		b.Label(lbl("end"))

	case ShapeNonConvergent:
		// The taken path flows into a different loop tail; no common
		// reconvergence within the observation window.
		b.Brz(isa.R10, lbl("other"))
		emitBody(hm.NTLen, isa.R7, 3)
		b.Jmp(lbl("end"))
		b.Label(lbl("other"))
		emitBody(hm.NTLen/2+1, isa.R12, 5)
		for i := 0; i < 48; i++ { // long divergent region
			b.AddI(isa.R12, isa.R12, 1)
		}
		b.Label(lbl("end"))
	}

	if hm.FeedsLoad {
		// A long-latency load whose address depends on the hammock body,
		// consumed immediately: predication chains it behind the branch.
		b.MovI(isa.R13, dataTableBase)
		b.Add(isa.R13, isa.R13, isa.R11)
		b.Load(isa.R15, isa.R13, 0)
		b.Add(isa.R7, isa.R7, isa.R15)
	}

	if hm.FeedsChase {
		// The next chase step reads through the body-selected field: the
		// loop-carried chain now passes through the hammock's outcome.
		b.Add(isa.R13, isa.R3, isa.R11)
		b.Load(isa.R3, isa.R13, 0)
	}

	if hm.CorrelatedTail {
		// A branch perfectly correlated with the hammock condition,
		// placed beyond the reconvergence point, guarding a region too
		// large for predication (beyond the N=40 learning window). With
		// speculative-history update the predictor learns the
		// correlation; predicating the hammock removes it from history,
		// so this branch starts mispredicting instead (Sec. II-C2 — the
		// paper's B1/B2 example and the omnetpp negative outlier).
		b.AndI(isa.R10, isa.R2, 1)
		b.Brz(isa.R10, lbl("tail_skip"))
		for i := 0; i < 44; i++ {
			b.AddI(isa.R7, isa.R7, 2)
		}
		b.Label(lbl("tail_skip"))
	}

	for k := 0; k < hm.PatternTails; k++ {
		// Deterministic pattern of the iteration counter: bit k+1 of
		// (r0 ^ r0>>1). Predictable via the branch's own outcomes at
		// fixed global-history positions — and only then.
		b.ShrI(isa.R12, isa.R0, 1)
		b.Xor(isa.R12, isa.R12, isa.R0)
		b.ShrI(isa.R12, isa.R12, int64(k+1))
		b.AndI(isa.R12, isa.R12, 1)
		b.Brz(isa.R12, lbl(fmt.Sprintf("pt%d", k)))
		b.AddI(isa.R7, isa.R7, 5)
		b.AddI(isa.R7, isa.R7, 2)
		b.Label(lbl(fmt.Sprintf("pt%d", k)))
	}
}
