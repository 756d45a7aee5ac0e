package experiments

import (
	"fmt"
	"sort"

	"acb/internal/stats"
)

// Experiment is one named entry of the registry: a paper table/figure (or
// sensitivity study) reproducible via Run. The registry is the single
// name→experiment mapping shared by acbsweep, the acbd service and tests.
type Experiment struct {
	Name string
	// Extra marks sensitivity studies and other experiments excluded from
	// an "all" run.
	Extra bool
	Func  func(Options) *stats.Table
}

// registry lists the experiments in presentation order (tables first,
// then figures, then the extras).
var registry = []Experiment{
	{"table1", false, func(Options) *stats.Table { return TableI() }},
	{"table2", false, func(Options) *stats.Table { return TableII() }},
	{"table3", false, func(Options) *stats.Table { return TableIII() }},
	{"fig1", false, Figure1},
	{"fig6", false, Figure6},
	{"fig7", false, Figure7},
	{"fig8", false, Figure8},
	{"fig9", false, Figure9},
	{"fig10", false, Figure10},
	{"fig11", false, Figure11},
	{"scaling", false, CoreScaling},
	{"power", false, PowerProxy},
	{"census", false, MispredictCensus},
	{"cpistack", false, CPIStackExperiment},
	{"sampled-fig6", true, SampledFig6},
	{"sens-n", true, SensitivityN},
	{"sens-epoch", true, SensitivityEpoch},
	{"sens-acbtable", true, SensitivityACBTable},
	{"sens-critical", true, SensitivityCriticalTable},
	{"sens-predictor", true, SensitivityPredictor},
	{"multirecon", true, MultiRecon},
	{"ablations", true, Ablations},
}

// Experiments returns the registry in presentation order.
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// Lookup returns the named experiment.
func Lookup(name string) (Experiment, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Names returns the experiment names in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for _, e := range registry {
		out = append(out, e.Name)
	}
	sort.Strings(out)
	return out
}

// Run executes the named experiment and returns its table. Unlike calling
// the experiment function directly — which panics on a simulation failure,
// matching the CLI's crash-on-bug posture — Run converts harness panics
// into errors and reports a cancelled opts.Context as its ctx.Err(), so
// long-lived callers (the acbd service) survive a failed or cancelled job.
func Run(name string, opts Options) (tab *stats.Table, err error) {
	e, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q", name)
	}
	defer func() {
		if r := recover(); r != nil {
			if re, isErr := r.(error); isErr {
				err = re
			} else {
				err = fmt.Errorf("experiments: %s: %v", name, r)
			}
			tab = nil
		}
	}()
	tab = e.Func(opts)
	// A context cancelled between simulations leaves skipped jobs'
	// result slots zeroed without any job erroring; never return such a
	// partially-populated table as success.
	if opts.Context != nil {
		if cerr := opts.Context.Err(); cerr != nil {
			return nil, cerr
		}
	}
	return tab, nil
}
