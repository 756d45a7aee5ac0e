package workload

import (
	"fmt"
	"sort"

	"acb/internal/isa"
)

// Category labels mirror the paper's Table III.
const (
	CatISPEC   = "ISPEC"
	CatFSPEC   = "FSPEC"
	CatSPEC17  = "SPEC17"
	CatSYSmark = "SYSmark"
	CatClient  = "Client"
	CatServer  = "Server"
)

// Workload is one named benchmark of the suite.
type Workload struct {
	Name     string
	Category string
	// Mirrors documents which paper workload/outlier class this synthetic
	// kernel reproduces.
	Mirrors string
	Spec    Spec
	// Tier labels non-synthetic workload classes ("adversarial", "trace");
	// empty for the registered synthetic suite.
	Tier string
	// build, when set, overrides Spec-based construction — the hook the
	// trace-replay and adversarial backends use. train selects the
	// profiling-input variant; trace-backed workloads have no separate
	// training input, so they ignore it.
	build func(train bool) ([]isa.Instruction, *isa.Memory)
}

// Build generates the workload's program and memory image. Every call
// returns an independent memory image, so concurrent runs can mutate
// theirs freely.
func (w *Workload) Build() ([]isa.Instruction, *isa.Memory) {
	if w.build != nil {
		return w.build(false)
	}
	return w.Spec.Build()
}

// Program generates the workload's program, the one Build returns. A
// synthetic workload's code does not depend on its input, so it builds no
// memory image for it; a workload with its own build (a trace or an
// adversarial entry) builds its image and drops it.
func (w *Workload) Program() []isa.Instruction {
	if w.build != nil {
		p, _ := w.build(false)
		return p
	}
	s := w.Spec.withDefaults()
	return s.program()
}

// BuildTrain generates the profiling-input variant of the workload (used
// by the DMP baseline's compiler pass; see Spec.BuildTrain).
func (w *Workload) BuildTrain() ([]isa.Instruction, *isa.Memory) {
	if w.build != nil {
		return w.build(true)
	}
	return w.Spec.BuildTrain()
}

// suite is the registry, populated at init.
var suite []Workload

func register(name, category, mirrors string, spec Spec) {
	spec.Name = name
	spec.Iters = 10_000_000 // run length is bounded by the simulation budget
	suite = append(suite, Workload{Name: name, Category: category, Mirrors: mirrors, Spec: spec})
}

// All returns the full suite in registration order.
func All() []Workload {
	out := make([]Workload, len(suite))
	copy(out, suite)
	return out
}

// ByName returns the named workload.
func ByName(name string) (Workload, error) {
	for _, w := range suite {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("workload: unknown workload %q", name)
}

// ByCategory returns the workloads of one category.
func ByCategory(cat string) []Workload {
	var out []Workload
	for _, w := range suite {
		if w.Category == cat {
			out = append(out, w)
		}
	}
	return out
}

// Categories returns the category names in a stable order.
func Categories() []string {
	seen := map[string]bool{}
	var out []string
	for _, w := range suite {
		if !seen[w.Category] {
			seen[w.Category] = true
			out = append(out, w.Category)
		}
	}
	sort.Strings(out)
	return out
}

// h is shorthand for building hammock lists.
func h(hs ...Hammock) []Hammock { return hs }

func init() {
	// ---- ISPEC (SPEC CPU2006 integer) ----------------------------------
	register("perlbench", CatISPEC, "mixed branchy integer code", Spec{
		Seed: 101, Period: 4096, ALU: 4,
		Hammocks: h(
			Hammock{Shape: ShapeIfElse, TLen: 3, NTLen: 4, TakenBias: 0.5, Noise: 0.6, TrainDiffers: true, TrainNoise: 0.1},
			Hammock{Shape: ShapeIfOnly, NTLen: 5, TakenBias: 0.8, Noise: 0.1},
		),
	})
	register("bzip2", CatISPEC, "biased data-dependent compression branches", Spec{
		Seed: 102, Period: 8192, ALU: 3,
		Hammocks: h(
			Hammock{Shape: ShapeIfOnly, NTLen: 4, TakenBias: 0.7, Noise: 0.9, TrainDiffers: true, TrainNoise: 0.1},
			Hammock{Shape: ShapeIfElse, TLen: 2, NTLen: 2, TakenBias: 0.5, Noise: 0.3},
		),
	})
	register("gcc", CatISPEC, "many static branches, moderate predictability", Spec{
		Seed: 103, Period: 2048, ALU: 6, PredictableLoops: 3,
		Hammocks: h(
			Hammock{Shape: ShapeIfElse, TLen: 8, NTLen: 10, TakenBias: 0.5, Noise: 0.28},
			Hammock{Shape: ShapeType3, TLen: 5, NTLen: 3, TakenBias: 0.4, Noise: 0.5},
			Hammock{Shape: ShapeIfOnly, NTLen: 3, TakenBias: 0.9, Noise: 0.05},
		),
	})
	register("mcf", CatISPEC, "pointer-chase bound with data-dependent branches", Spec{
		Seed: 104, Period: 8192, ChaseDepth: 1, ChaseSpan: 8 << 20, ALU: 4,
		Hammocks: h(
			Hammock{Shape: ShapeIfElse, TLen: 3, NTLen: 3, TakenBias: 0.5, Noise: 0.8},
		),
	})
	register("gobmk", CatISPEC, "hard-to-predict game-tree branches", Spec{
		Seed: 105, Period: 16384, ALU: 3,
		Hammocks: h(
			Hammock{Shape: ShapeIfElse, TLen: 10, NTLen: 9, TakenBias: 0.5, Noise: 0.9, TrainDiffers: true, TrainNoise: 0.08},
			Hammock{Shape: ShapeIfElse, TLen: 2, NTLen: 3, TakenBias: 0.5, Noise: 0.7},
		),
	})
	register("hmmer", CatISPEC, "predictable inner loops", Spec{
		Seed: 106, Period: 1024, ALU: 8, PredictableLoops: 6,
		Hammocks: h(
			Hammock{Shape: ShapeIfOnly, NTLen: 3, TakenBias: 0.95, Noise: 0.02},
		),
	})
	register("sjeng", CatISPEC, "H2P search branches, medium hammocks", Spec{
		Seed: 107, Period: 8192, ALU: 4,
		Hammocks: h(
			Hammock{Shape: ShapeIfElse, TLen: 12, NTLen: 14, TakenBias: 0.5, Noise: 0.8, TrainDiffers: true, TrainNoise: 0.1},
			Hammock{Shape: ShapeIfOnly, NTLen: 10, TakenBias: 0.6, Noise: 0.5},
		),
	})
	register("libquantum", CatISPEC, "streaming with biased branch", Spec{
		Seed: 108, Period: 512, ALU: 5,
		Hammocks: h(
			Hammock{Shape: ShapeIfOnly, NTLen: 2, TakenBias: 0.75, Noise: 0.15},
		),
	})
	register("h264ref", CatISPEC, "predication-hostile: slow-resolving branch feeds critical loads (category C/E)", Spec{
		Seed: 109, Period: 8192, ALU: 2, ChaseDepth: 1, ChaseSpan: 16 << 20,
		Hammocks: h(
			Hammock{Shape: ShapeIfElse, TLen: 4, NTLen: 4, TakenBias: 0.5, SlowCond: true, FeedsChase: true},
			Hammock{Shape: ShapeIfElse, TLen: 3, NTLen: 2, TakenBias: 0.5, Noise: 0.6},
		),
	})
	register("omnetpp", CatISPEC, "correlated pair + history-position-sensitive branches (Sec. II-C2/V-C negative outlier, category D)", Spec{
		Seed: 110, Period: 8192, ALU: 3,
		Hammocks: h(
			Hammock{Shape: ShapeIfElse, TLen: 2, NTLen: 2, TakenBias: 0.8, Noise: 0.3, CorrelatedTail: true, PatternTails: 2},
			Hammock{Shape: ShapeIfOnly, NTLen: 3, TakenBias: 0.7, Noise: 0.25, CorrelatedTail: true, PatternTails: 2},
		),
	})
	register("astar", CatISPEC, "path-finding H2P branch over loaded data", Spec{
		Seed: 111, Period: 16384, ChaseDepth: 1, ChaseSpan: 2 << 20, ALU: 4,
		Hammocks: h(
			Hammock{Shape: ShapeIfElse, TLen: 4, NTLen: 3, TakenBias: 0.45, Noise: 0.85},
		),
	})
	register("xalancbmk", CatISPEC, "branchy traversal with history-sensitive dispatch (category D)", Spec{
		Seed: 112, Period: 4096, ALU: 4, PredictableLoops: 2,
		Hammocks: h(
			Hammock{Shape: ShapeIfElse, TLen: 3, NTLen: 5, TakenBias: 0.75, Noise: 0.35, PatternTails: 2},
			Hammock{Shape: ShapeType3, TLen: 4, NTLen: 4, TakenBias: 0.5, Noise: 0.4, CorrelatedTail: true},
		),
	})

	// ---- FSPEC (SPEC CPU2006 floating point; integer-kernel analogues) --
	register("bwaves", CatFSPEC, "regular loops, nearly branch-free", Spec{
		Seed: 201, Period: 256, ALU: 12, PredictableLoops: 8,
		Hammocks: h(
			Hammock{Shape: ShapeIfOnly, NTLen: 2, TakenBias: 0.98, Noise: 0.01},
		),
	})
	register("milc", CatFSPEC, "memory-streaming with occasional H2P", Spec{
		Seed: 202, Period: 2048, ChaseDepth: 1, ChaseSpan: 4 << 20, ALU: 6,
		Hammocks: h(
			Hammock{Shape: ShapeIfOnly, NTLen: 4, TakenBias: 0.5, Noise: 0.4},
		),
	})
	register("soplex", CatFSPEC, "mispredicts shadowed by LLC misses (flat outlier)", Spec{
		Seed: 203, Period: 8192, ChaseDepth: 2, ChaseSpan: 8 << 20, ALU: 3,
		Hammocks: h(
			Hammock{Shape: ShapeIfElse, TLen: 2, NTLen: 2, TakenBias: 0.5, Noise: 0.9},
		),
	})
	register("povray", CatFSPEC, "compute with moderately predictable hammocks", Spec{
		Seed: 204, Period: 1024, ALU: 8,
		Hammocks: h(
			Hammock{Shape: ShapeIfElse, TLen: 5, NTLen: 4, TakenBias: 0.6, Noise: 0.16},
		),
	})
	register("lbm", CatFSPEC, "streaming stores, biased branch", Spec{
		Seed: 205, Period: 512, ALU: 7,
		Hammocks: h(
			Hammock{Shape: ShapeIfOnly, NTLen: 3, TakenBias: 0.9, Noise: 0.05, StoreInBody: true},
		),
	})
	register("sphinx3", CatFSPEC, "H2P scoring branch, small body", Spec{
		Seed: 206, Period: 8192, ALU: 4,
		Hammocks: h(
			Hammock{Shape: ShapeIfElse, TLen: 8, NTLen: 7, TakenBias: 0.5, Noise: 0.75},
		),
	})

	// ---- SPEC17 ---------------------------------------------------------
	register("x264", CatSPEC17, "motion-search H2P with store traffic", Spec{
		Seed: 301, Period: 8192, ALU: 3,
		Hammocks: h(
			Hammock{Shape: ShapeIfElse, TLen: 4, NTLen: 4, TakenBias: 0.5, Noise: 0.7, StoreInBody: true},
			Hammock{Shape: ShapeIfOnly, NTLen: 6, TakenBias: 0.7, Noise: 0.3},
		),
	})
	register("deepsjeng", CatSPEC17, "deep H2P search branches", Spec{
		Seed: 302, Period: 16384, ALU: 4,
		Hammocks: h(
			Hammock{Shape: ShapeIfElse, TLen: 14, NTLen: 12, TakenBias: 0.5, Noise: 0.85, TrainDiffers: true, TrainNoise: 0.06},
			Hammock{Shape: ShapeIfElse, TLen: 3, NTLen: 3, TakenBias: 0.5, Noise: 0.6},
		),
	})
	register("leela", CatSPEC17, "monte-carlo playout branches (H2P, small bodies)", Spec{
		Seed: 303, Period: 16384, ALU: 2,
		Hammocks: h(
			Hammock{Shape: ShapeIfElse, TLen: 2, NTLen: 3, TakenBias: 0.5, Noise: 0.9, TrainDiffers: true, TrainNoise: 0.12},
			Hammock{Shape: ShapeIfOnly, NTLen: 2, TakenBias: 0.5, Noise: 0.8},
		),
	})
	register("exchange", CatSPEC17, "predictable integer kernels", Spec{
		Seed: 304, Period: 256, ALU: 10, PredictableLoops: 5,
		Hammocks: h(
			Hammock{Shape: ShapeIfOnly, NTLen: 3, TakenBias: 0.9, Noise: 0.03},
		),
	})
	register("xz", CatSPEC17, "match-length branches, mixed predictability", Spec{
		Seed: 305, Period: 4096, ALU: 4,
		Hammocks: h(
			Hammock{Shape: ShapeIfElse, TLen: 3, NTLen: 4, TakenBias: 0.6, Noise: 0.55, TrainDiffers: true, TrainNoise: 0.1},
			Hammock{Shape: ShapeNonConvergent, NTLen: 4, TakenBias: 0.5, Noise: 0.5},
		),
	})

	// ---- SYSmark --------------------------------------------------------
	register("winzip", CatSYSmark, "archive coding: biased match branches, store traffic", Spec{
		Seed: 601, Period: 8192, ALU: 3,
		Hammocks: h(
			Hammock{Shape: ShapeIfElse, TLen: 2, NTLen: 3, TakenBias: 0.6, Noise: 0.8, StoreInBody: true},
			Hammock{Shape: ShapeIfOnly, NTLen: 2, TakenBias: 0.85, Noise: 0.1},
		),
	})
	register("photoshop", CatSYSmark, "filter kernels: predictable inner loops + occasional H2P", Spec{
		Seed: 602, Period: 4096, ALU: 7, PredictableLoops: 4,
		Hammocks: h(
			Hammock{Shape: ShapeIfElse, TLen: 4, NTLen: 4, TakenBias: 0.5, Noise: 0.45},
		),
	})
	register("sketchup", CatSYSmark, "geometry traversal: Type-3 control flow over loaded data", Spec{
		Seed: 603, Period: 8192, ChaseDepth: 1, ChaseSpan: 1 << 20, ALU: 4,
		Hammocks: h(
			Hammock{Shape: ShapeType3, TLen: 3, NTLen: 4, TakenBias: 0.5, Noise: 0.6},
		),
	})
	register("premiere", CatSYSmark, "media pipeline: mixed predictability, input-dependent branches", Spec{
		Seed: 604, Period: 8192, ALU: 5,
		Hammocks: h(
			Hammock{Shape: ShapeIfElse, TLen: 3, NTLen: 3, TakenBias: 0.5, Noise: 0.65, TrainDiffers: true, TrainNoise: 0.15},
			Hammock{Shape: ShapeIfOnly, NTLen: 5, TakenBias: 0.75, Noise: 0.2},
		),
	})

	// ---- Client ---------------------------------------------------------
	register("eembc", CatClient, "predication-hostile control (category C/E: Dynamo must throttle)", Spec{
		Seed: 401, Period: 8192, ALU: 1, ChaseDepth: 1, ChaseSpan: 16 << 20,
		Hammocks: h(
			Hammock{Shape: ShapeIfElse, TLen: 5, NTLen: 5, TakenBias: 0.5, SlowCond: true, FeedsChase: true},
			Hammock{Shape: ShapeIfOnly, NTLen: 6, TakenBias: 0.5, Noise: 0.6},
		),
	})
	register("geekbench", CatClient, "mixed compute and branchy segments", Spec{
		Seed: 402, Period: 4096, ALU: 6,
		Hammocks: h(
			Hammock{Shape: ShapeIfElse, TLen: 3, NTLen: 3, TakenBias: 0.5, Noise: 0.5, TrainDiffers: true, TrainNoise: 0.05},
			Hammock{Shape: ShapeIfOnly, NTLen: 4, TakenBias: 0.8, Noise: 0.15},
		),
	})
	register("chrome", CatClient, "dispatch-heavy with Type-3 control flow", Spec{
		Seed: 403, Period: 8192, ALU: 3,
		Hammocks: h(
			Hammock{Shape: ShapeType3, TLen: 9, NTLen: 8, TakenBias: 0.5, Noise: 0.65, TrainDiffers: true, TrainNoise: 0.1},
			Hammock{Shape: ShapeIfElse, TLen: 2, NTLen: 2, TakenBias: 0.5, Noise: 0.45},
		),
	})
	register("compression", CatClient, "biased literal/match branch, big wins for predication", Spec{
		Seed: 404, Period: 16384, ALU: 2,
		Hammocks: h(
			Hammock{Shape: ShapeType3, TLen: 2, NTLen: 2, TakenBias: 0.5, Noise: 0.95, TrainDiffers: true, TrainNoise: 0.1},
		),
	})

	// ---- Server ---------------------------------------------------------
	register("lammps", CatServer, "dominant small H2P hammock (largest positive outlier)", Spec{
		Seed: 501, Period: 32768, ALU: 1,
		Hammocks: h(
			Hammock{Shape: ShapeType3, TLen: 2, NTLen: 2, TakenBias: 0.5, Noise: 1.0},
			Hammock{Shape: ShapeType3, TLen: 1, NTLen: 1, TakenBias: 0.5, Noise: 1.0},
		),
	})
	register("parsec", CatServer, "mixed server kernels, moderate H2P with memory traffic", Spec{
		Seed: 502, Period: 8192, ChaseDepth: 1, ChaseSpan: 2 << 20, ALU: 4,
		Hammocks: h(
			Hammock{Shape: ShapeIfElse, TLen: 4, NTLen: 4, TakenBias: 0.5, Noise: 0.6},
		),
	})
}
