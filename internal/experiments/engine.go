package experiments

import (
	"fmt"
	"sort"
	"strings"

	"acb/internal/bpu"
	"acb/internal/core"
	"acb/internal/dmp"
	"acb/internal/ooo"
	"acb/internal/workload"
)

// SchemeKind names a scheme of the engine catalogue.
type SchemeKind string

// The catalogue's scheme names.
const (
	SchemeBaseline    SchemeKind = "baseline"
	SchemePerfectBP   SchemeKind = "perfect-bp"
	SchemeACB         SchemeKind = "acb"
	SchemeACBNoDynamo SchemeKind = "acb-nodynamo"
	SchemeACBEager    SchemeKind = "acb-eager"
	SchemeDMP         SchemeKind = "dmp"
	SchemeDMPPBH      SchemeKind = "dmp-pbh"
	SchemeDHP         SchemeKind = "dhp"
)

// Engine is what a simulation runs besides its workload and core: a
// predictor named for bpu.New ("" means TAGE) and a scheme family
// (baseline, acb, dmp, dmp-pbh or dhp) with, for acb, its configuration.
// It is comparable, the engine half of a memo key.
type Engine struct {
	Predictor string
	Scheme    SchemeKind
	ACB       core.Config
}

// acbWith is ACB with one edit to its default configuration.
func acbWith(edit func(*core.Config)) Engine {
	cfg := core.DefaultConfig()
	edit(&cfg)
	return Engine{Scheme: SchemeACB, ACB: cfg}
}

// catalogue is the one table of scheme names. The ACB variants are ACB
// with a configuration edit, so a configuration sweep that reaches a
// named variant shares its runs.
var catalogue = map[SchemeKind]Engine{
	SchemeBaseline:    {Scheme: SchemeBaseline},
	SchemePerfectBP:   {Predictor: "oracle", Scheme: SchemeBaseline},
	"perfect":         {Predictor: "oracle", Scheme: SchemeBaseline}, // acbsim's spelling
	SchemeACB:         acbWith(func(*core.Config) {}),
	SchemeACBNoDynamo: acbWith(func(c *core.Config) { c.UseDynamo = false }),
	SchemeACBEager:    acbWith(func(c *core.Config) { c.Eager = true }),
	SchemeDMP:         {Scheme: SchemeDMP},
	SchemeDMPPBH:      {Scheme: SchemeDMPPBH},
	SchemeDHP:         {Scheme: SchemeDHP},
}

// SchemeNames returns the catalogue's scheme names in sorted order.
func SchemeNames() []string {
	var out []string
	for k := range catalogue {
		out = append(out, string(k))
	}
	sort.Strings(out)
	return out
}

// LookupEngine resolves a catalogue scheme name.
func LookupEngine(name string) (Engine, error) {
	e, ok := catalogue[SchemeKind(name)]
	if !ok {
		return e, fmt.Errorf("experiments: unknown scheme %q (want %s)", name, strings.Join(SchemeNames(), ", "))
	}
	return e, nil
}

// Constructors returns constructors for the engine's predictor and scheme
// on workload w (the scheme is nil for the baseline); sampled runs call
// them once per window. A DMP-family scheme first profiles w's training
// input.
func (e Engine) Constructors(w *workload.Workload) (func() bpu.Predictor, func() ooo.Scheme, error) {
	return e.constructors(func() []dmp.Candidate { return profile(w) })
}

// named returns e with its predictor named: "" is TAGE.
func (e Engine) named() Engine {
	if e.Predictor == "" {
		e.Predictor = "tage"
	}
	return e
}

func (e Engine) constructors(candidates func() []dmp.Candidate) (func() bpu.Predictor, func() ooo.Scheme, error) {
	e = e.named()
	if _, err := bpu.New(e.Predictor); err != nil {
		return nil, nil, err
	}
	newPredictor := func() bpu.Predictor { p, _ := bpu.New(e.Predictor); return p }
	switch e.Scheme {
	case SchemeBaseline:
		return newPredictor, func() ooo.Scheme { return nil }, nil
	case SchemeACB:
		return newPredictor, func() ooo.Scheme { return core.New(e.ACB) }, nil
	case SchemeDMP, SchemeDMPPBH, SchemeDHP:
		cfg := dmp.DefaultConfig(dmp.ModeDMP)
		if e.Scheme == SchemeDHP {
			cfg.Mode = dmp.ModeDHP
		}
		cfg.PerfectBranchHistory = e.Scheme == SchemeDMPPBH
		cands := candidates()
		return newPredictor, func() ooo.Scheme { return dmp.New(cfg, cands) }, nil
	}
	return nil, nil, fmt.Errorf("experiments: %q is not a scheme family", e.Scheme)
}

// profile runs the DMP compiler pass on w's training input, not the input
// the simulation runs (the paper's Sec. II-B/V-C point about input
// mismatch).
func profile(w *workload.Workload) []dmp.Candidate {
	tp, tm := w.BuildTrain()
	return dmp.Profile(tp, tm, dmp.DefaultProfileConfig())
}
