package ooo

import (
	"testing"

	"acb/internal/bpu"
	"acb/internal/config"
	"acb/internal/isa"
	"acb/internal/prog"
)

// ---- ROB ring ------------------------------------------------------------

func TestROBAllocPopWraps(t *testing.T) {
	r := newROB(4)
	var seqs []int64
	for i := 0; i < 10; i++ {
		if r.full() {
			r.pop()
		}
		e := r.alloc()
		seqs = append(seqs, e.seq)
	}
	for i, s := range seqs {
		if s != int64(i) {
			t.Fatalf("seq %d = %d", i, s)
		}
	}
	if r.occupancy() != 4 {
		t.Fatalf("occupancy = %d", r.occupancy())
	}
}

func TestROBAtValidatesSeq(t *testing.T) {
	r := newROB(4)
	e := r.alloc()
	if r.at(e.seq) != e {
		t.Fatal("at() missed live entry")
	}
	if r.at(e.seq+1) != nil {
		t.Fatal("at() returned unallocated seq")
	}
	r.pop()
	if r.at(e.seq) != nil {
		t.Fatal("at() returned retired seq")
	}
}

func TestROBSquashAfter(t *testing.T) {
	r := newROB(8)
	for i := 0; i < 6; i++ {
		r.alloc()
	}
	var squashed []int64
	r.squashAfter(2, func(e *robEntry) { squashed = append(squashed, e.seq) })
	// Youngest first: 5,4,3.
	if len(squashed) != 3 || squashed[0] != 5 || squashed[2] != 3 {
		t.Fatalf("squashed = %v", squashed)
	}
	if r.occupancy() != 3 {
		t.Fatalf("occupancy = %d", r.occupancy())
	}
	// Reallocation reuses the squashed sequence numbers.
	if e := r.alloc(); e.seq != 3 {
		t.Fatalf("post-squash seq = %d, want 3", e.seq)
	}
}

// ---- Register accounting ---------------------------------------------------

// prfAccounting verifies that after a drained (halted) run, the physical
// register file partitions exactly into the free list plus the
// architectural map — i.e. no register leaked and none was double-freed.
func prfAccounting(t *testing.T, c *Core) {
	t.Helper()
	if c.rob.occupancy() != 0 {
		t.Fatalf("ROB not drained: %d", c.rob.occupancy())
	}
	seen := make(map[int]string, c.cfg.PRFSize)
	for r := 0; r < isa.NumRegs; r++ {
		p := int(c.rat[r])
		if prev, dup := seen[p]; dup {
			t.Fatalf("phys %d mapped twice (%s and rat[r%d])", p, prev, r)
		}
		seen[p] = "rat"
	}
	for _, p := range c.freeList {
		if prev, dup := seen[p]; dup {
			t.Fatalf("phys %d double-owned (%s and freelist)", p, prev)
		}
		seen[p] = "free"
	}
	if len(seen) != c.cfg.PRFSize {
		t.Fatalf("accounted %d physical registers, want %d (leak of %d)",
			len(seen), c.cfg.PRFSize, c.cfg.PRFSize-len(seen))
	}
}

// hammockWithStores builds a small halting program exercising flushes,
// predication and stores.
func hammockWithStores(iters int64) ([]isa.Instruction, *isa.Memory) {
	b := prog.NewBuilder()
	b.MovI(isa.R1, iters)
	b.MovI(isa.R2, 0x1000)
	b.MovI(isa.R3, 0)
	b.Label("loop")
	b.AndI(isa.R4, isa.R3, 511)
	b.MulI(isa.R4, isa.R4, 8)
	b.Add(isa.R5, isa.R2, isa.R4)
	b.Load(isa.R6, isa.R5, 0)
	b.AndI(isa.R6, isa.R6, 1)
	b.Brz(isa.R6, "else")
	b.AddI(isa.R7, isa.R7, 3)
	b.Store(isa.R5, 0x8000, isa.R7)
	b.Jmp("end")
	b.Label("else")
	b.AddI(isa.R7, isa.R7, 7)
	b.Label("end")
	b.AddI(isa.R3, isa.R3, 1)
	b.Sub(isa.R8, isa.R3, isa.R1)
	b.Brnz(isa.R8, "loop")
	b.Halt()
	m := isa.NewMemory()
	x := uint64(0xC0FFEE)
	for i := int64(0); i < 512; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m.Store(0x1000+i*8, int64(x&0xFF))
	}
	return b.MustBuild(), m
}

func TestPRFConservationBaseline(t *testing.T) {
	p, m := hammockWithStores(3000)
	c := NewWithMemory(config.Skylake(), p, bpu.NewTAGE(bpu.DefaultTAGEConfig()), nil, m)
	res, err := c.Run(1_000_000)
	if err != nil || !res.Halted {
		t.Fatalf("run: halted=%v err=%v", res.Halted, err)
	}
	prfAccounting(t, c)
}

func TestPRFConservationStallPredication(t *testing.T) {
	p, m := hammockWithStores(3000)
	sch := &everyBranchScheme{spec: PredSpec{MaxBody: 48}}
	sch.recon = func(pc int) (int, bool) {
		// Predicate the hammock branch only (pc of Brz): identified by the
		// forward target.
		if p[pc].Op == isa.Br && p[pc].Target > pc {
			g := prog.NewCFG(p)
			if r := g.Reconvergence(pc); r >= 0 {
				return r, true
			}
		}
		return 0, false
	}
	c := NewWithMemory(config.Skylake(), p, bpu.NewTAGE(bpu.DefaultTAGEConfig()), sch, m)
	res, err := c.Run(1_000_000)
	if err != nil || !res.Halted {
		t.Fatalf("run: halted=%v err=%v", res.Halted, err)
	}
	if res.Predications == 0 {
		t.Fatal("scheme never predicated")
	}
	prfAccounting(t, c)
}

func TestPRFConservationEagerPredication(t *testing.T) {
	p, m := hammockWithStores(3000)
	sch := &everyBranchScheme{spec: PredSpec{MaxBody: 48, Eager: true}}
	sch.recon = func(pc int) (int, bool) {
		if p[pc].Op == isa.Br && p[pc].Target > pc {
			g := prog.NewCFG(p)
			if r := g.Reconvergence(pc); r >= 0 {
				return r, true
			}
		}
		return 0, false
	}
	c := NewWithMemory(config.Skylake(), p, bpu.NewTAGE(bpu.DefaultTAGEConfig()), sch, m)
	res, err := c.Run(1_000_000)
	if err != nil || !res.Halted {
		t.Fatalf("run: halted=%v err=%v", res.Halted, err)
	}
	if res.SelectUops == 0 {
		t.Fatal("no selects injected")
	}
	prfAccounting(t, c)
}

// everyBranchScheme predicates any forward branch its recon callback
// accepts.
type everyBranchScheme struct {
	spec  PredSpec
	recon func(pc int) (int, bool)
}

func (s *everyBranchScheme) Name() string { return "every" }
func (s *everyBranchScheme) ShouldPredicate(pc int, _ bool, _ int, _ uint64) (PredSpec, bool) {
	r, ok := s.recon(pc)
	if !ok {
		return PredSpec{}, false
	}
	sp := s.spec
	sp.ReconPC = r
	return sp, true
}
func (s *everyBranchScheme) OnFetch(FetchEvent)           {}
func (s *everyBranchScheme) OnFlush()                     {}
func (s *everyBranchScheme) OnBranchResolve(ResolveEvent) {}
func (s *everyBranchScheme) OnRetireTick(int64)           {}

// TestFetchQueueBounded: the decoupled fetch queue never exceeds its
// capacity even across flushes and contexts.
func TestFetchQueueBounded(t *testing.T) {
	p, m := hammockWithStores(500)
	c := NewWithMemory(config.Skylake(), p, bpu.NewTAGE(bpu.DefaultTAGEConfig()), nil, m)
	for i := 0; i < 20000; i++ {
		c.cycle++
		if c.stepCycle() {
			break
		}
		if c.fqLen > c.fetchQCap {
			t.Fatalf("fetch queue %d exceeds cap %d at cycle %d", c.fqLen, c.fetchQCap, c.cycle)
		}
		if c.rob.occupancy() > c.cfg.ROBSize {
			t.Fatalf("ROB over capacity")
		}
		if c.iqOccupancy() > c.cfg.IQSize {
			t.Fatalf("IQ over capacity: %d", c.iqOccupancy())
		}
	}
}

// TestResultRates: derived metrics behave at zero.
func TestResultRates(t *testing.T) {
	var r Result
	if r.MispredPerKilo() != 0 || r.FlushPerKilo() != 0 {
		t.Fatal("zero-retired rates must be 0")
	}
	r.Retired = 1000
	r.Mispredicts = 5
	r.Flushes = 7
	if r.MispredPerKilo() != 5 || r.FlushPerKilo() != 7 {
		t.Fatalf("rates = %f/%f", r.MispredPerKilo(), r.FlushPerKilo())
	}
}
