package experiments

import (
	"sort"
	"sync"

	"acb/internal/ooo"
	"acb/internal/stats"
)

// CPITotals is a snapshot of accumulated CPI-stack bucket totals for one
// scheme. Buckets follows ooo.CPIBucketNames order.
type CPITotals struct {
	Cycles  int64   `json:"cycles"`
	Buckets []int64 `json:"buckets"`
}

// CPIAccumulator aggregates CPI stacks across simulations, keyed by
// scheme name. It is safe for concurrent use: the parallel runner's jobs
// add into it as they finish, and the acbd service scrapes it from the
// metrics handler while jobs run.
type CPIAccumulator struct {
	mu      sync.Mutex
	schemes map[string]*CPITotals
}

// NewCPIAccumulator returns an empty accumulator.
func NewCPIAccumulator() *CPIAccumulator {
	return &CPIAccumulator{schemes: make(map[string]*CPITotals)}
}

// Add folds one simulation's CPI stack into the scheme's totals.
func (a *CPIAccumulator) Add(scheme string, s *ooo.CPIStack) { a.add(scheme, s.Cycles, s.Buckets()) }

// Merge folds another accumulator's totals into this one.
func (a *CPIAccumulator) Merge(other *CPIAccumulator) {
	for scheme, t := range other.Snapshot() {
		a.add(scheme, t.Cycles, t.Buckets)
	}
}

func (a *CPIAccumulator) add(scheme string, cycles int64, buckets []int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	t := a.schemes[scheme]
	if t == nil {
		t = &CPITotals{Buckets: make([]int64, len(ooo.CPIBucketNames))}
		a.schemes[scheme] = t
	}
	t.Cycles += cycles
	for i, v := range buckets {
		t.Buckets[i] += v
	}
}

// Snapshot returns a deep copy of the per-scheme totals.
func (a *CPIAccumulator) Snapshot() map[string]CPITotals {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]CPITotals, len(a.schemes))
	for scheme, t := range a.schemes {
		cp := CPITotals{Cycles: t.Cycles, Buckets: make([]int64, len(t.Buckets))}
		copy(cp.Buckets, t.Buckets)
		out[scheme] = cp
	}
	return out
}

// Schemes returns the accumulated scheme names in sorted order.
func (a *CPIAccumulator) Schemes() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.schemes))
	for s := range a.schemes {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// CPIStackExperiment attributes every cycle of a baseline and an ACB run
// to a cause bucket, per workload — the "where do ACB's gains come from"
// story behind the paper's Sec. VI analysis: ACB converts
// bad-speculation-flush cycles into (fewer) body-stall and divergence
// cycles. Bucket columns are exact cycle counts and always sum to the
// cycles column; `acbsweep -experiment cpistack -plot` renders them as
// per-run stacked bars.
func CPIStackExperiment(opts Options) *stats.Table {
	opts.fill()
	kinds := []SchemeKind{SchemeBaseline, SchemeACB}
	res := sweep(opts, kinds...)

	header := append([]string{"workload", "scheme", "cycles"}, ooo.CPIBucketNames...)
	t := stats.NewTable(header...)
	for _, w := range opts.Workloads {
		for _, k := range kinds {
			r := res[w.Name][k]
			cells := []interface{}{w.Name, string(k), r.Cycles}
			for _, v := range r.CPI.Buckets() {
				cells = append(cells, v)
			}
			t.AddRow(cells...)
		}
	}
	return t
}
