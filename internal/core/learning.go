package core

import "fmt"

// ConvType classifies how a branch's paths reconverge (Fig. 3).
type ConvType uint8

// Convergence types. Type-1: the reconvergence point is the branch target
// itself (IF without ELSE). Type-2: the not-taken path contains a Jumper
// whose target lies beyond the branch target (IF-ELSE). Type-3: the taken
// path contains a Jumper whose target lies between the branch and its
// target, so the not-taken path falls through to it.
const (
	TypeNone ConvType = iota
	Type1
	Type2
	Type3
)

// String returns the paper's name for the convergence type.
func (t ConvType) String() string {
	switch t {
	case Type1:
		return "Type-1"
	case Type2:
		return "Type-2"
	case Type3:
		return "Type-3"
	}
	return "unclassified"
}

// Learned is a confirmed convergence classification.
type Learned struct {
	PC         int
	Type       ConvType
	ReconPC    int
	FirstTaken bool // which direction the front end fetches first
	BodySize   int  // combined observed instructions on both paths
	Backward   bool // learned through the backward-branch transform (Fig. 4)
}

// learnPhase enumerates the Learning Table's internal progress.
type learnPhase uint8

const (
	learnIdle       learnPhase = iota
	learnObserveNT             // observe the NT-role path (Type-1 / Type-2 probe)
	learnValidateT             // validate a Type-2 candidate on the T-role path
	learnObserveT              // observe the T-role path (Type-3 probe)
	learnValidateNT            // validate a Type-3 candidate on the NT-role path
)

// LearningTable is the paper's single-entry (20-byte) convergence
// detector: it watches the fetched-PC stream one candidate branch at a
// time, classifying it as Type-1/2/3 or non-convergent. Backward branches
// are handled by the perspective-swap transform of Fig. 4: the roles of
// the taken and not-taken paths are exchanged and the effective target
// becomes the instruction after the branch.
type LearningTable struct {
	n int // observation window (paper: N = 40)

	occupied bool
	pc       int
	target   int
	backward bool

	phase     learnPhase
	watching  bool
	count     int
	candidate int
	firstLen  int // body length observed on the first classified path

	// age releases a stuck candidate (the paper's table is simply
	// occupied until confirmation; a bound keeps simulation robust when a
	// candidate branch stops recurring).
	age    int
	maxAge int
}

// NewLearningTable returns a learning table with observation window n.
func NewLearningTable(n int) *LearningTable {
	return &LearningTable{n: n, maxAge: 200_000}
}

// Occupied reports whether a candidate is being learned.
func (l *LearningTable) Occupied() bool { return l.occupied }

// CandidatePC returns the branch being learned (undefined when not
// occupied).
func (l *LearningTable) CandidatePC() int { return l.pc }

// Arm installs a new candidate branch; target is its decode-time branch
// target. It returns false if the table is occupied.
func (l *LearningTable) Arm(pc, target int) bool {
	if l.occupied {
		return false
	}
	*l = LearningTable{
		n: l.n, maxAge: l.maxAge,
		occupied: true,
		pc:       pc,
		target:   target,
		backward: target <= pc,
		phase:    learnObserveNT,
	}
	return true
}

// Reset abandons the current candidate.
func (l *LearningTable) Reset() {
	l.occupied = false
	l.phase = learnIdle
	l.watching = false
}

// AbortObservation cancels an in-progress observation (pipeline flush)
// without abandoning the candidate.
func (l *LearningTable) AbortObservation() {
	l.watching = false
	l.count = 0
}

// ntRole maps an observed branch direction onto the transformed
// "not-taken" role: for forward branches it is the literal not-taken
// direction, for backward branches the roles swap (Fig. 4).
func (l *LearningTable) ntRole(taken bool) bool {
	if l.backward {
		return taken
	}
	return !taken
}

// effTarget is the transformed branch target: the literal target for
// forward branches, the fall-through PC for backward ones.
func (l *LearningTable) effTarget() int {
	if l.backward {
		return l.pc + 1
	}
	return l.target
}

// effPC is the transformed branch PC.
func (l *LearningTable) effPC() int {
	if l.backward {
		return l.target
	}
	return l.pc
}

// Observe feeds one fetched instruction to the detector. When
// classification completes it returns a non-nil Learned. ev fields:
// pc of the fetched instruction; branch=true when it is the candidate's
// conditional-branch PC class; taken/target describe the control transfer
// the fetch followed; inContext marks instructions inside an open
// predication context (ignored for arming). It inlines to the idle test.
func (l *LearningTable) Observe(pc int, isBranch, isControl, taken bool, target int, inContext bool) *Learned {
	if !l.occupied {
		return nil
	}
	return l.observe(pc, isBranch, isControl, taken, target, inContext)
}

func (l *LearningTable) observe(pc int, isBranch, isControl, taken bool, target int, inContext bool) *Learned {
	l.age++
	if l.age > l.maxAge {
		l.Reset()
		return nil
	}

	if !l.watching {
		// Waiting for an instance of the candidate in the wanted role.
		if pc != l.pc || !isBranch || inContext {
			return nil
		}
		wantNT := l.phase == learnObserveNT || l.phase == learnValidateNT
		if l.ntRole(taken) != wantNT {
			return nil
		}
		l.watching = true
		l.count = 0
		return nil
	}

	// Watching the stream after an armed instance.
	l.count++
	if l.count > l.n {
		l.advanceOnExhaust()
		return nil
	}

	switch l.phase {
	case learnObserveNT:
		if pc == l.effTarget() {
			// Type-1: reached the (effective) branch target by
			// fall-through — the taken-role path is empty.
			return l.confirm(Type1, l.effTarget(), l.count-1, 0)
		}
		if isControl && taken && target > l.effTarget() {
			// Type-2 candidate: Jumper beyond the branch target.
			l.candidate = target
			l.firstLen = l.count
			l.phase = learnValidateT
			l.watching = false
			return nil
		}
	case learnValidateT:
		if pc == l.candidate {
			return l.confirm(Type2, l.candidate, l.firstLen, l.count-1)
		}
	case learnObserveT:
		if isControl && taken && target < l.effTarget() && target > l.effPC() {
			// Type-3 candidate: Jumper back between branch and target.
			l.candidate = target
			l.firstLen = l.count
			l.phase = learnValidateNT
			l.watching = false
			return nil
		}
	case learnValidateNT:
		if pc == l.candidate {
			return l.confirm(Type3, l.candidate, l.count-1, l.firstLen)
		}
	default:
		panic(fmt.Sprintf("core: learning in invalid phase %d", l.phase))
	}
	return nil
}

// advanceOnExhaust moves to the next probe when an observation window
// expires without a classification, per the paper's staged algorithm:
// Type-1/2 probes fall back to the Type-3 probe; a failed Type-3 probe
// resets the entry as non-convergent.
func (l *LearningTable) advanceOnExhaust() {
	switch l.phase {
	case learnObserveNT, learnValidateT:
		l.phase = learnObserveT
		l.watching = false
		l.count = 0
	default:
		l.Reset()
	}
}

func (l *LearningTable) confirm(t ConvType, recon, ntLen, tLen int) *Learned {
	// FirstTaken: Type-1/2 fetch the not-taken role first, Type-3 the
	// taken role first; the backward transform swaps literal directions.
	firstNTRole := t != Type3
	firstTaken := !firstNTRole
	if l.backward {
		firstTaken = !firstTaken
	}
	res := &Learned{
		PC:         l.pc,
		Type:       t,
		ReconPC:    recon,
		FirstTaken: firstTaken,
		BodySize:   ntLen + tLen,
		Backward:   l.backward,
	}
	l.Reset()
	return res
}

// StorageBits returns the hardware cost of the single entry; the paper
// budgets 20 bytes.
func (l *LearningTable) StorageBits() int { return 20 * 8 }
