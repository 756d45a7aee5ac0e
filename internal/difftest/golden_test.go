package difftest

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"acb/internal/bpu"
	"acb/internal/config"
	"acb/internal/isa"
	"acb/internal/ooo"
)

var updateGolden = flag.Bool("update", false, "rewrite golden timing snapshots")

// goldenRun is the timing-relevant slice of one engine's ooo.Result. It
// pins not just architectural state (the oracle already guards that) but
// the exact cycle counts and machinery statistics, so any hot-path rework
// of the cycle loop is provably byte-identical to the pre-optimization
// engine — including event-driven cycle skipping, which must never change
// Result.Cycles.
type goldenRun struct {
	Engine          string `json:"engine"`
	Cycles          int64  `json:"cycles"`
	Retired         int64  `json:"retired"`
	CondBranches    int64  `json:"cond_branches"`
	Branches        int64  `json:"branches"`
	Mispredicts     int64  `json:"mispredicts"`
	Flushes         int64  `json:"flushes"`
	DivFlushes      int64  `json:"div_flushes"`
	Predications    int64  `json:"predications"`
	Allocations     int64  `json:"allocations"`
	WrongPathAllocs int64  `json:"wrong_path_allocs"`
	SelectUops      int64  `json:"select_uops"`
	AllocStallSlots int64  `json:"alloc_stall_slots"`
	TransparentOps  int64  `json:"transparent_ops"`
	InvalidatedMem  int64  `json:"invalidated_mem"`
	LoadForwards    int64  `json:"load_forwards"`
	L1Hits          int64  `json:"l1_hits"`
	L1Misses        int64  `json:"l1_misses"`
	LLCHits         int64  `json:"llc_hits"`
	LLCMisses       int64  `json:"llc_misses"`
	FinalRegs       string `json:"final_regs"`
	Halted          bool   `json:"halted"`
}

type goldenProg struct {
	Seed uint64      `json:"seed"`
	Runs []goldenRun `json:"runs"`
}

func goldenFromResult(name string, res ooo.Result) goldenRun {
	return goldenRun{
		Engine:          name,
		Cycles:          res.Cycles,
		Retired:         res.Retired,
		CondBranches:    res.CondBranches,
		Branches:        res.Branches,
		Mispredicts:     res.Mispredicts,
		Flushes:         res.Flushes,
		DivFlushes:      res.DivFlushes,
		Predications:    res.Predications,
		Allocations:     res.Allocations,
		WrongPathAllocs: res.WrongPathAllocs,
		SelectUops:      res.SelectUops,
		AllocStallSlots: res.AllocStallSlots,
		TransparentOps:  res.TransparentOps,
		InvalidatedMem:  res.InvalidatedMem,
		LoadForwards:    res.LoadForwards,
		L1Hits:          res.L1Hits,
		L1Misses:        res.L1Misses,
		LLCHits:         res.LLCHits,
		LLCMisses:       res.LLCMisses,
		FinalRegs:       fmt.Sprint(res.FinalRegs),
		Halted:          res.Halted,
	}
}

// goldenSeeds picks a spread of fuzzer programs that between them exercise
// every engine mechanism (dual fetch, transparency, selects, divergence).
var goldenSeeds = []uint64{1, 7, 23, 1003, 90210}

// runGoldenEngine runs one engine bare — no PipeStats, CPI or trace — the
// exact configuration the throughput path uses.
func runGoldenEngine(t *testing.T, e Engine, asm *Assembled, budget int64) ooo.Result {
	t.Helper()
	scheme := e.NewScheme(asm)
	c := ooo.NewWithMemory(config.Skylake(), asm.Insts,
		bpu.NewTAGE(bpu.DefaultTAGEConfig()), scheme, asm.Mem.Clone())
	res, err := c.Run(budget)
	if err != nil {
		t.Fatalf("engine %s: %v", e.Name, err)
	}
	return res
}

// TestGoldenTiming locks the cycle-accurate behaviour of all 9 default
// matrix engines against snapshots captured from the pre-optimization
// (seed) engine. Regenerate with `go test ./internal/difftest/ -run
// TestGoldenTiming -update` — but only when a simulator *model* change
// intentionally alters timing; pure performance work must keep this green
// untouched.
func TestGoldenTiming(t *testing.T) {
	// Lives in a subdirectory so LoadCorpusDir's *.json glob (the corpus
	// replay test) does not pick it up.
	path := filepath.Join("testdata", "golden", "timing.json")
	var got []goldenProg
	for _, seed := range goldenSeeds {
		p := Generate(seed, DefaultGenConfig())
		asm, err := Assemble(p)
		if err != nil {
			t.Fatalf("seed %d: assemble: %v", seed, err)
		}
		// Same budget shape as Check: functional steps plus slack.
		refMem := asm.Mem.Clone()
		ref := isa.NewArchState(refMem)
		steps, halted := ref.Run(asm.Insts, asm.StepBound+16)
		if !halted {
			t.Fatalf("seed %d: functional emulator did not halt", seed)
		}
		gp := goldenProg{Seed: seed}
		for _, e := range DefaultMatrix() {
			res := runGoldenEngine(t, e, asm, steps+64)
			gp.Runs = append(gp.Runs, goldenFromResult(e.Name, res))
		}
		got = append(got, gp)
	}

	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d programs x %d engines)", path, len(got), len(got[0].Runs))
		return
	}

	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	var want []goldenProg
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d programs, current run produced %d", len(want), len(got))
	}
	for i := range want {
		if want[i].Seed != got[i].Seed {
			t.Fatalf("program %d: golden seed %d, got %d", i, want[i].Seed, got[i].Seed)
		}
		if len(want[i].Runs) != len(got[i].Runs) {
			t.Fatalf("seed %d: golden has %d engines, got %d", want[i].Seed, len(want[i].Runs), len(got[i].Runs))
		}
		for j := range want[i].Runs {
			w, g := want[i].Runs[j], got[i].Runs[j]
			if w != g {
				t.Errorf("seed %d engine %s: result diverged from seed engine\n golden: %+v\n    got: %+v",
					want[i].Seed, w.Engine, w, g)
			}
		}
	}
}
