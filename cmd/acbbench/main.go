// Command acbbench measures the simulator's hot-loop throughput on the
// Fig. 6 workload sweep and writes a machine-readable snapshot
// (BENCH_cycleloop.json at the repository root). The committed snapshot is
// the performance baseline; CI's perf-gate job re-measures and compares
// with -compare, failing on a normalized-throughput regression or on
// allocation growth in the cycle loop.
//
// Raw cycles/sec is hardware-dependent, so every run also times a fixed
// pure-Go calibration loop (refScore). The gated quantity is
// cycles/sec ÷ refScore — simulated cycles per unit of local compute —
// which transfers across machines of different speeds. Throughput is
// gated per scheme (one geomean for baseline, one for ACB), so a baseline
// win cannot mask an ACB loss. Allocations per simulated cycle are
// hardware-independent and gated strictly, per (workload, scheme) row;
// every row of the committed snapshot must be present in the new run.
//
// Usage:
//
//	go run ./cmd/acbbench -out BENCH_cycleloop.json           # refresh baseline
//	go run ./cmd/acbbench -compare BENCH_cycleloop.json       # CI gate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"acb/internal/bpu"
	"acb/internal/config"
	"acb/internal/core"
	"acb/internal/ooo"
	"acb/internal/stats"
	"acb/internal/workload"
)

// Snapshot is the serialized benchmark result set.
type Snapshot struct {
	GoVersion string                   `json:"go_version"`
	GOARCH    string                   `json:"goarch"`
	Budget    int64                    `json:"budget"`
	RefScore  float64                  `json:"ref_score"` // calibration loop iterations/sec
	Rows      []WorkloadRow            `json:"workloads"`
	Schemes   map[string]SchemeSummary `json:"schemes"`
}

// WorkloadRow is one (workload, scheme) measurement.
type WorkloadRow struct {
	Name          string  `json:"name"`
	Scheme        string  `json:"scheme"`
	Cycles        int64   `json:"cycles"`
	Retired       int64   `json:"retired"`
	WallSec       float64 `json:"wall_sec"`
	CyclesPerSec  float64 `json:"cycles_per_sec"`
	Normalized    float64 `json:"normalized_cps"` // cycles_per_sec / ref_score
	Mallocs       uint64  `json:"mallocs"`
	AllocsPerKCyc float64 `json:"allocs_per_kcycle"`
}

// SchemeSummary aggregates one scheme's rows.
type SchemeSummary struct {
	NormalizedCPSGeomean float64 `json:"normalized_cps_geomean"` // gated
	// AllocsPerKCycMean is an arithmetic mean (zero rows are legal); it is
	// reported, while the gate checks allocations row by row.
	AllocsPerKCycMean float64 `json:"allocs_per_kcycle_mean"`
}

// schemes are the engines measured per workload.
var schemes = []string{"baseline", "acb"}

// throughputTolerance is the allowed fractional drop in a scheme's
// normalized geomean throughput before the gate fails.
const throughputTolerance = 0.10

// allocSlack is the allowed fractional growth in per-workload
// allocs/kcycle, plus an absolute floor so near-zero baselines don't trip
// on runtime jitter (a map rehash landing differently, etc.).
const (
	allocSlackFrac = 0.05
	allocSlackAbs  = 0.5 // allocs per kilocycle
)

func main() {
	var (
		out     = flag.String("out", "BENCH_cycleloop.json", "write the measured snapshot here ('' to skip)")
		compare = flag.String("compare", "", "baseline snapshot to gate against (exit 1 on regression)")
		budget  = flag.Int64("budget", 400_000, "retired-instruction budget per simulation")
		repeat  = flag.Int("repeat", 3, "measurement repetitions; the fastest wall time wins")
	)
	flag.Parse()

	snap, err := measure(*budget, *repeat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "acbbench: %v\n", err)
		os.Exit(2)
	}

	if *out != "" {
		buf, _ := json.MarshalIndent(snap, "", "  ")
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "acbbench: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("wrote %s\n", *out)
	}

	fmt.Printf("ref_score %.3g/s\n", snap.RefScore)
	for _, sch := range schemes {
		sum := snap.Schemes[sch]
		fmt.Printf("%-8s geomean normalized %.4g   mean allocs/kcycle %.3f\n",
			sch, sum.NormalizedCPSGeomean, sum.AllocsPerKCycMean)
	}

	if *compare != "" {
		base, err := load(*compare)
		if err != nil {
			fmt.Fprintf(os.Stderr, "acbbench: %v\n", err)
			os.Exit(2)
		}
		fails := gate(base, snap, os.Stdout)
		if len(fails) == 0 {
			fmt.Println("perf gate: PASS")
			return
		}
		for _, f := range fails {
			fmt.Fprintf(os.Stderr, "perf gate: FAIL %s\n", f)
		}
		os.Exit(1)
	}
}

// refScore times a fixed xorshift/sum loop — pure integer compute, no
// allocation — as a proxy for the host's single-thread speed.
func refScore() float64 {
	const iters = 1 << 26
	best := 0.0
	for r := 0; r < 3; r++ {
		x := uint64(0x9E3779B97F4A7C15)
		var sum uint64
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			sum += x
		}
		el := time.Since(t0).Seconds()
		if sum == 42 { // defeat dead-code elimination
			fmt.Fprintln(os.Stderr, "impossible")
		}
		if s := float64(iters) / el; s > best {
			best = s
		}
	}
	return best
}

// measure runs the Fig. 6 sweep (baseline and ACB engines per workload)
// and assembles a snapshot.
func measure(budget int64, repeat int) (*Snapshot, error) {
	snap := &Snapshot{
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		Budget:    budget,
		RefScore:  refScore(),
	}
	for _, w := range workload.All() {
		for _, sch := range schemes {
			row, err := measureOne(&w, sch, budget, repeat)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", w.Name, sch, err)
			}
			row.Normalized = row.CyclesPerSec / snap.RefScore
			snap.Rows = append(snap.Rows, *row)
		}
	}
	snap.Schemes = summarize(snap.Rows)
	return snap, nil
}

// summarize computes each scheme's throughput geomean and mean
// allocations per kilocycle over its rows.
func summarize(rows []WorkloadRow) map[string]SchemeSummary {
	normalized := map[string][]float64{}
	allocSum := map[string]float64{}
	for _, r := range rows {
		normalized[r.Scheme] = append(normalized[r.Scheme], r.Normalized)
		allocSum[r.Scheme] += r.AllocsPerKCyc
	}
	out := make(map[string]SchemeSummary, len(normalized))
	for sch, ns := range normalized {
		out[sch] = SchemeSummary{
			NormalizedCPSGeomean: stats.Geomean(ns),
			AllocsPerKCycMean:    allocSum[sch] / float64(len(ns)),
		}
	}
	return out
}

// measureOne times one (workload, scheme) simulation. Engines run bare
// (no observers), matching the throughput configuration the cycle loop is
// optimized for. Simulated cycles and allocation counts are deterministic
// across repetitions; wall time takes the fastest of `repeat` runs.
func measureOne(w *workload.Workload, sch string, budget int64, repeat int) (*WorkloadRow, error) {
	row := &WorkloadRow{Name: w.Name, Scheme: sch}
	for r := 0; r < repeat; r++ {
		p, m := w.Build()
		var scheme ooo.Scheme
		if sch == "acb" {
			scheme = core.New(core.DefaultConfig())
		}
		c := ooo.NewWithMemory(config.Skylake(), p,
			bpu.NewTAGE(bpu.DefaultTAGEConfig()), scheme, m)

		var msBefore, msAfter runtime.MemStats
		runtime.ReadMemStats(&msBefore)
		t0 := time.Now()
		res, err := c.Run(budget)
		wall := time.Since(t0).Seconds()
		runtime.ReadMemStats(&msAfter)
		if err != nil {
			return nil, err
		}

		mallocs := msAfter.Mallocs - msBefore.Mallocs
		if r == 0 || wall < row.WallSec {
			row.WallSec = wall
		}
		// Deterministic quantities: take them from the first rep, and use
		// the minimum malloc count thereafter (a concurrent GC cycle can
		// only add to the delta, never subtract).
		if r == 0 || mallocs < row.Mallocs {
			row.Mallocs = mallocs
		}
		row.Cycles = res.Cycles
		row.Retired = res.Retired
	}
	row.CyclesPerSec = float64(row.Cycles) / row.WallSec
	row.AllocsPerKCyc = float64(row.Mallocs) / float64(row.Cycles) * 1000
	return row, nil
}

func load(path string) (*Snapshot, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// gate compares the fresh measurement against the committed baseline and
// returns its failures (none = pass), writing what passed to out.
// Throughput is compared per scheme via the hardware-normalized geomean;
// allocations per kilocycle are compared per (workload, scheme) row, and
// a baseline row missing from the current run fails.
func gate(base, cur *Snapshot, out io.Writer) []string {
	if base.Budget != cur.Budget {
		return []string{fmt.Sprintf("budget mismatch (baseline %d, current %d): not comparable",
			base.Budget, cur.Budget)}
	}
	var fails []string
	if len(base.Schemes) == 0 {
		fails = append(fails, "baseline snapshot has no per-scheme summary; refresh it with -out")
	}
	names := make([]string, 0, len(base.Schemes))
	for sch := range base.Schemes {
		names = append(names, sch)
	}
	sort.Strings(names)
	for _, sch := range names {
		b := base.Schemes[sch].NormalizedCPSGeomean
		c, found := cur.Schemes[sch]
		if !found {
			fails = append(fails, fmt.Sprintf("scheme %s missing from the current run", sch))
			continue
		}
		floor := b * (1 - throughputTolerance)
		if c.NormalizedCPSGeomean < floor {
			fails = append(fails, fmt.Sprintf("%s normalized throughput geomean %.4g < %.4g (baseline %.4g - %d%%)",
				sch, c.NormalizedCPSGeomean, floor, b, int(throughputTolerance*100)))
		} else {
			fmt.Fprintf(out, "throughput: %s normalized geomean %.4g vs baseline %.4g (floor %.4g) ok\n",
				sch, c.NormalizedCPSGeomean, b, floor)
		}
	}

	curRows := map[string]WorkloadRow{}
	for _, r := range cur.Rows {
		curRows[r.Name+"/"+r.Scheme] = r
	}
	checked := 0
	for _, b := range base.Rows {
		k := b.Name + "/" + b.Scheme
		c, found := curRows[k]
		if !found {
			fails = append(fails, fmt.Sprintf("%s missing from the current run", k))
			continue
		}
		checked++
		limit := b.AllocsPerKCyc*(1+allocSlackFrac) + allocSlackAbs
		if c.AllocsPerKCyc > limit {
			fails = append(fails, fmt.Sprintf("%s allocs/kcycle %.3f > %.3f (baseline %.3f)",
				k, c.AllocsPerKCyc, limit, b.AllocsPerKCyc))
		}
	}
	if len(fails) == 0 {
		fmt.Fprintf(out, "allocations: all %d baseline rows within %.0f%%+%.1f (%d new rows ungated)\n",
			checked, allocSlackFrac*100, allocSlackAbs, len(cur.Rows)-checked)
	}
	return fails
}
