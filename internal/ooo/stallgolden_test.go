package ooo_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"acb/internal/bpu"
	"acb/internal/config"
	"acb/internal/core"
	"acb/internal/difftest"
	"acb/internal/isa"
	"acb/internal/ooo"
	"acb/internal/prog"
	"acb/internal/workload"
)

var updateStallGolden = flag.Bool("update", false, "rewrite testdata/stall_golden.json")

// stallStats summarizes the BodyStallCycles of every predicated instance
// a run retires: how many, their sum, and an FNV-1a hash of the values in
// retirement order.
type stallStats struct {
	Count int64  `json:"count"`
	Sum   int64  `json:"sum"`
	Hash  uint64 `json:"hash"`
}

// stallRecorder forwards to a scheme and folds each predicated
// instance's BodyStallCycles into stallStats.
type stallRecorder struct {
	ooo.Scheme
	st stallStats
}

func newStallRecorder(s ooo.Scheme) *stallRecorder {
	return &stallRecorder{Scheme: s, st: stallStats{Hash: 14695981039346656037}}
}

func (r *stallRecorder) OnBranchResolve(ev ooo.ResolveEvent) {
	if ev.Predicated {
		r.st.Count++
		r.st.Sum += ev.BodyStallCycles
		r.st.Hash = (r.st.Hash ^ uint64(ev.BodyStallCycles)) * 1099511628211
	}
	r.Scheme.OnBranchResolve(ev)
}

// stallCase is one program under one scheme and core configuration.
type stallCase struct {
	name   string
	prog   []isa.Instruction
	image  *isa.Memory
	cfg    config.Core
	scheme func() ooo.Scheme
	budget int64
}

// loadCapProgram makes the load cap decide body stalls. Each iteration's
// three loads wait on a divide and become ready in the same cycle, so two
// issue and fill the load cap while the width cap stays open; the
// predicated hammock after them waits on a second divide, so its body
// loads are still gated then. The suite never has a gated load younger
// than a filled load cap in a cycle whose width cap stayed open.
func loadCapProgram() (p []isa.Instruction, branch, recon int) {
	b := prog.NewBuilder()
	b.MovI(isa.R1, 2000)
	b.MovI(isa.R11, 4096)
	b.MovI(isa.R12, 1)
	b.Label("loop")
	b.Div(isa.R10, isa.R11, isa.R12)
	b.Load(isa.R3, isa.R10, 0)
	b.Load(isa.R4, isa.R10, 8)
	b.Load(isa.R5, isa.R10, 16)
	b.Div(isa.R13, isa.R10, isa.R12)
	branch = b.PC()
	b.Brz(isa.R13, "join")
	b.Load(isa.R6, isa.R0, 32)
	b.Load(isa.R7, isa.R0, 40)
	b.Add(isa.R8, isa.R6, isa.R7)
	b.Label("join")
	recon = b.PC()
	b.AddI(isa.R1, isa.R1, -1)
	b.Brnz(isa.R1, "loop")
	b.Halt()
	return b.MustBuild(), branch, recon
}

// forceScheme predicates every instance of one branch with one spec.
type forceScheme struct {
	pc   int
	spec ooo.PredSpec
}

func (f forceScheme) Name() string { return "force" }
func (f forceScheme) ShouldPredicate(pc int, _ bool, _ int, _ uint64) (ooo.PredSpec, bool) {
	return f.spec, pc == f.pc
}
func (forceScheme) OnFetch(ooo.FetchEvent)           {}
func (forceScheme) OnFlush()                         {}
func (forceScheme) OnBranchResolve(ooo.ResolveEvent) {}
func (forceScheme) OnRetireTick(int64)               {}

// stallCases runs the suite at 200k instructions under ACB with Dynamo
// and under ACB with the stall throttle (the one consumer of
// BodyStallCycles), the difftest golden seeds under the acb-hot and
// acb-throttle engines, and loadCapProgram with its hammock forced. Each
// runs on Skylake and on a copy issuing two instructions a cycle, where
// the width, load and store caps hold often.
func stallCases(t *testing.T) []stallCase {
	narrow := config.Skylake()
	narrow.Name += "-iw2"
	narrow.IssueWidth = 2
	cfgs := []config.Core{config.Skylake(), narrow}
	throttle := core.DefaultConfig()
	throttle.UseDynamo = false
	throttle.ThrottleStalls = true
	schemes := []struct {
		name string
		cfg  core.Config
	}{{"dynamo", core.DefaultConfig()}, {"throttle", throttle}}

	type built struct {
		name  string
		prog  []isa.Instruction
		image *isa.Memory
	}
	var suite []built
	for _, w := range workload.All() {
		p, m := w.Build()
		// Runs share the image through copy-on-write snapshots; taking
		// the first here, before they run in parallel, leaves later
		// CloneCOW calls read-only on it.
		m.CloneCOW()
		suite = append(suite, built{w.Name, p, m})
	}
	lp, branch, recon := loadCapProgram()
	var cases []stallCase
	for _, cfg := range cfgs {
		cases = append(cases, stallCase{
			name: cfg.Name + "/loadcap/forced",
			prog: lp, image: isa.NewMemory(), cfg: cfg, budget: 1 << 20,
			scheme: func() ooo.Scheme {
				return forceScheme{branch, ooo.PredSpec{ReconPC: recon, MaxBody: 8}}
			},
		})
		for _, w := range suite {
			for _, s := range schemes {
				s := s
				cases = append(cases, stallCase{
					name: fmt.Sprintf("%s/%s/%s", cfg.Name, w.name, s.name),
					prog: w.prog, image: w.image, cfg: cfg, budget: 200_000,
					scheme: func() ooo.Scheme { return core.New(s.cfg) },
				})
			}
		}
		engines, err := difftest.MatrixByNames([]string{"acb-hot", "acb-throttle"})
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []uint64{1, 7, 23, 1003, 90210} {
			asm, err := difftest.Assemble(difftest.Generate(seed, difftest.DefaultGenConfig()))
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			asm.Mem.CloneCOW()
			for _, e := range engines {
				e, asm := e, asm
				cases = append(cases, stallCase{
					name: fmt.Sprintf("%s/seed%d/%s", cfg.Name, seed, e.Name),
					prog: asm.Insts, image: asm.Mem, cfg: cfg, budget: asm.StepBound + 64,
					scheme: func() ooo.Scheme { return e.NewScheme(asm) },
				})
			}
		}
	}
	return cases
}

// runStalls runs one case through Run, which skips quiescent cycles, or
// cycle by cycle through StepCycle, which does not. It also checks that
// the correct-path outcomes the run's snapshots kept stayed bounded.
func runStalls(t *testing.T, sc stallCase, stepped bool) stallStats {
	rec := newStallRecorder(sc.scheme())
	c := ooo.NewWithMemory(sc.cfg, sc.prog, bpu.NewTAGE(bpu.DefaultTAGEConfig()), rec, sc.image.CloneCOW())
	if !stepped {
		if _, err := c.Run(sc.budget); err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
	} else {
		for {
			if halted, retired := c.StepCycle(); halted || retired >= sc.budget {
				break
			}
		}
	}
	if n := c.OutcomeCapacity(); n > 1024 {
		t.Errorf("%s: correct-path outcome buffer grew to %d", sc.name, n)
	}
	return rec.st
}

// TestGoldenBodyStalls pins every predicated instance's BodyStallCycles,
// the count behind the paper's rejected stall throttle, against snapshots
// taken before stall-mode bodies stopped being polled. Each case must
// match its snapshot both with and without quiescent-cycle skipping.
// Regenerate with `go test ./internal/ooo/ -run TestGoldenBodyStalls
// -update` only when a model change alters timing on purpose.
func TestGoldenBodyStalls(t *testing.T) {
	path := filepath.Join("testdata", "stall_golden.json")
	cases := stallCases(t)
	var mu sync.Mutex
	got := make(map[string]stallStats, len(cases))
	t.Run("cases", func(t *testing.T) {
		for _, sc := range cases {
			sc := sc
			t.Run(sc.name, func(t *testing.T) {
				t.Parallel()
				run, stepped := runStalls(t, sc, false), runStalls(t, sc, true)
				if run != stepped {
					t.Fatalf("Run gives %+v, a StepCycle loop %+v", run, stepped)
				}
				mu.Lock()
				got[sc.name] = run
				mu.Unlock()
			})
		}
	})
	if t.Failed() {
		return
	}
	if *updateStallGolden {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want map[string]stallStats
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d cases, the run %d", len(want), len(got))
	}
	predicated := 0
	for name, g := range got {
		w, ok := want[name]
		switch {
		case !ok:
			t.Errorf("%s: not in the golden", name)
		case g != w:
			t.Errorf("%s: %+v, golden %+v", name, g, w)
		}
		if g.Sum > 0 {
			predicated++
		}
	}
	if predicated < len(got)/2 {
		t.Errorf("only %d of %d cases counted a body stall", predicated, len(got))
	}
}
