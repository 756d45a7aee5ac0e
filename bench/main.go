// Command bench is the repository's end-to-end benchmark. One invocation
// runs one named workload for a fixed measuring time and prints every
// metric by name with its unit; the last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": 132, "failed": 0, "metrics": {"ops_per_s": {"value": 6.61, "unit": "1/s"}, ...}}
//
// Workloads (see README.md for why each was chosen):
//
//	fig6-baseline  the 33-workload Fig. 6 sweep, baseline core, one simulation at a time
//	fig6-acb       the same sweep with ACB
//	sampled-long   SMARTS-style sampled runs of 8 workloads at 20M instructions
//	fleet-sweep    an in-process coordinator + 2 workers fed batches of fresh fig6 jobs
//
// Host times are reported at a nominal host speed: each operation's time
// is divided by a speed index that a fixed reference kernel measures just
// before it (hostspeed.go), because the shared host's speed drifts.
//
// Every layer is measured from outside, through its public API:
// ooo.NewWithMemory/Run, the bpu.Predictor and ooo.Scheme the core is
// handed (counted, recorded and replayed), sample.Run and its Pool hook,
// isa.ArchState.Run, service.Store, wal.Log, and the acbd HTTP API. With
// -trace 1 the same workload runs traced, followed by a fixed layer probe,
// and the per-layer metrics are printed instead; spans are written as
// Chrome trace-event JSON.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload fig6-acb --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload fleet-sweep --seed 1 --seconds 20 --trace 1
//
// run.sh builds this package into .bench_build/ and runs it from the
// repository root. Refresh the seed-0 correctness golden with
// `go test -run 'TestGolden$' -update` inside bench/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric, its unit and which direction is
// better.
type metricDef struct {
	name, unit, better string
}

// endToEnd lists what a user of the system sees; every workload reports
// all of them (an "operation" is workload-specific, see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"latency_ms.p50", "ms", "lower"},
	{"latency_ms.p90", "ms", "lower"},
}

// perLayer lists the traced run's metrics. Unit costs come from the layer
// probe that follows every traced run; shares and counts come from the
// workload's own traced operations and read 0 where the workload does not
// exercise the layer.
var perLayer = []metricDef{
	{"host.speed_index", "ratio", "lower"},
	// Layer probe (identical inputs on every workload).
	{"ooo.self_ns_per_cycle.baseline", "ns", "lower"},
	{"ooo.self_ns_per_cycle.acb", "ns", "lower"},
	{"ooo.allocs_per_kinstr.baseline", "count", "lower"},
	{"ooo.allocs_per_kinstr.acb", "count", "lower"},
	{"bpu.ns_per_call", "ns", "lower"},
	{"core.hook_ns_per_kinstr", "ns", "lower"},
	{"isa.emu_minstr_per_s", "Minstr/s", "higher"},
	{"workload.build_ms", "ms", "lower"},
	{"wal.append_ms.p50", "ms", "lower"},
	{"wal.append_ms.p99", "ms", "lower"},
	{"service.store_put_ms", "ms", "lower"},
	{"service.store_get_us.mem", "us", "lower"},
	{"service.store_get_us.disk", "us", "lower"},
	{"service.store_get_us.peer", "us", "lower"},
	{"service.store_get_us.miss", "us", "lower"},
	{"service.request_key_us", "us", "lower"},
	// In-process simulations (fig6-*, sampled-long).
	{"ooo.share", "ratio", "lower"},
	{"bpu.share", "ratio", "lower"},
	{"core.share", "ratio", "lower"},
	{"bpu.calls_per_kinstr", "count", "lower"},
	{"core.calls_per_kinstr.should_predicate", "count", "lower"},
	{"core.calls_per_kinstr.on_fetch", "count", "lower"},
	{"core.calls_per_kinstr.on_branch_resolve", "count", "lower"},
	{"core.calls_per_kinstr.on_retire_tick", "count", "lower"},
	{"core.calls_per_kinstr.on_flush", "count", "lower"},
	{"ooo.ipc", "ratio", "higher"},
	{"ooo.flushes_per_kinstr", "count", "lower"},
	{"core.predications_per_kinstr", "count", "higher"},
	{"core.reconverge_ratio", "ratio", "higher"},
	{"mem.l1_miss_rate", "ratio", "lower"},
	{"mem.llc_miss_rate", "ratio", "lower"},
	// sampled-long.
	{"sample.fastforward_share", "ratio", "lower"},
	{"sample.windows", "count", "higher"},
	{"sample.ci95_rel", "ratio", "lower"},
	{"sample.heap_mb", "MB", "lower"},
	// fleet-sweep: the durable latency split at layer boundaries.
	{"cluster.submit_share", "ratio", "lower"},
	{"cluster.dispatch_share", "ratio", "lower"},
	{"service.queue_share", "ratio", "lower"},
	{"service.sim_share", "ratio", "lower"},
	{"cluster.complete_share", "ratio", "lower"},
	{"cluster.notify_share", "ratio", "lower"},
	// Fleet counters (/v1/metrics deltas).
	{"cluster.steals_per_job", "count", "lower"},
	{"cluster.dedup_share", "ratio", "higher"},
	{"cluster.sims_per_fresh_job", "count", "lower"},
	{"cluster.rpc_errors", "count", "lower"},
	{"cluster.journal_bytes_per_job", "B", "lower"},
	{"trace_overhead_pct", "%", "lower"},
}

// settings sizes one run. defaultSettings holds the benchmark's sizes;
// tests shrink them.
type settings struct {
	seed     int64
	measure  time.Duration // measuring time
	trace    bool
	traceOut string // Chrome trace-event file (trace runs)
	workDir  string // scratch directory for fleet state; removed at exit
	speed    *hostSpeed

	setupReps     int   // setup repetitions; setup_s is their median
	fig6Budget    int64 // retired instructions per fig6 simulation
	sampledBudget int64 // instructions per sampled-long run
	fleetBudget   int64 // budget of each fleet-sweep job
	probeBudget   int64 // budget of the layer probe's simulations
	// golden, when set, is checked by the fig6 and sampled-long runs;
	// main loads it for seed 0 (it holds the default sizes' outputs).
	golden *golden
}

func defaultSettings(seed int64, measure time.Duration) settings {
	return settings{
		seed:          seed,
		measure:       measure,
		setupReps:     5,
		fig6Budget:    400_000,
		sampledBudget: 20_000_000,
		fleetBudget:   100_000,
		probeBudget:   100_000,
	}
}

// result is one run's outcome. Metric maps are keyed by metric name.
type result struct {
	attempted, failed int
	e2e               map[string]float64
	layer             map[string]float64
	setupHost         float64 // median set-up time in host seconds
}

func newResult() *result {
	r := &result{e2e: map[string]float64{}, layer: map[string]float64{}}
	for _, m := range perLayer {
		r.layer[m.name] = 0
	}
	return r
}

// check counts one attempted operation and, when err is non-nil, one
// failure (reported on stderr).
func (r *result) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "bench: FAILED: %v\n", err)
	}
}

// workloads maps each name to its runner.
var workloads = map[string]func(cfg settings, tr *tracer) (*result, error){
	"fig6-baseline": func(cfg settings, tr *tracer) (*result, error) { return runFig6(cfg, tr, "baseline") },
	"fig6-acb":      func(cfg settings, tr *tracer) (*result, error) { return runFig6(cfg, tr, "acb") },
	"sampled-long":  runSampled,
	"fleet-sweep":   runFleetSweep,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed      = flag.Int64("seed", 0, "input seed; seed 0 also checks the golden")
		seconds   = flag.Float64("seconds", 20, "measuring time in seconds")
		trace     = flag.Int("trace", 0, "1 = traced run: print the per-layer metrics instead of the end-to-end ones")
		traceFile = flag.String("trace-file", "", "Chrome trace-event output of a traced run (default .bench_build/trace/<workload>.json)")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "bench: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	cfg := defaultSettings(*seed, time.Duration(*seconds*float64(time.Second)))
	cfg.trace = *trace == 1
	if *seed == 0 {
		var err error
		if cfg.golden, err = loadGolden(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
	}
	cfg.traceOut = *traceFile
	if cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(".bench_build", "trace", *name+".json")
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(".bench_build", "run-"+*name+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	cfg.workDir = dir
	res, err := execute(*name, run, cfg)
	if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	line, err := report(res, cfg.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

// execute runs one workload, then the layer probe on a traced run, and
// writes the trace.
func execute(name string, run func(settings, *tracer) (*result, error), cfg settings) (*result, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	cfg.speed = newHostSpeed()
	res, err := run(cfg, tr)
	if err != nil {
		return nil, err
	}
	idx := median(cfg.speed.samples)
	fmt.Fprintf(os.Stderr, "host speed index: median %.3f of %d samples\n", idx, len(cfg.speed.samples))
	if !cfg.trace {
		res.e2e["setup_s"] = res.setupHost / idx
		fmt.Fprintf(os.Stderr, "setup: %.4g s on the host\n", res.setupHost)
		res.e2e["peak_rss_mb"] = peakRSSMB()
		return res, nil
	}
	if err := probeLayers(cfg, tr, res); err != nil {
		return nil, fmt.Errorf("layer probe: %w", err)
	}
	res.layer["host.speed_index"] = median(cfg.speed.samples)
	if err := tr.write(cfg.traceOut); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %d spans to %s\n", len(tr.spans), cfg.traceOut)
	return res, nil
}

// report prints every metric of the run's kind to stderr and returns the
// result line.
func report(res *result, traced bool) (string, error) {
	defs, vals := endToEnd, res.e2e
	if traced {
		defs, vals = perLayer, res.layer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0 && res.attempted > 0, res.attempted, res.failed, map[string]metric{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s not measured (%v)", d.name, v)
		}
		out.Metrics[d.name] = metric{v, d.unit}
		fmt.Fprintf(os.Stderr, "%-42s %14.6g %s\n", d.name, v, d.unit)
	}
	fmt.Fprintf(os.Stderr, "attempted %d, failed %d\n", res.attempted, res.failed)
	b, err := json.Marshal(out)
	return string(b), err
}

// setup runs one set-up repetition cfg.setupReps times, keeping the last
// instance (earlier ones are discarded), and records the median time. Each
// repetition starts from a collected heap. execute divides the time by the
// run's median host-speed index for setup_s: a handful of samples taken
// just before a repetition tracks the host worse than the run's hundreds.
func setup[T any](cfg settings, res *result, once func(rep int) (T, error), discard func(T) error) (T, error) {
	var times []float64
	var v T
	for rep := 0; rep < cfg.setupReps; rep++ {
		if rep > 0 {
			if err := discard(v); err != nil {
				return v, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if v, err = once(rep); err != nil {
			return v, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	res.setupHost = median(times)
	return v, nil
}

// latencies records the end-to-end metrics of operations with the given
// latencies over busy seconds of measured work, both at nominal host
// speed.
func (r *result) latencies(ms []float64, busy float64) {
	sort.Float64s(ms)
	r.e2e["ops_per_s"] = float64(len(ms)) / busy
	r.e2e["latency_ms.p50"] = percentile(ms, 50)
	r.e2e["latency_ms.p90"] = percentile(ms, 90)
	p, v, n := tail(ms)
	fmt.Fprintf(os.Stderr, "latency: n=%d p50=%.4g ms p90=%.4g ms tail p%g=%.4g ms\n",
		n, percentile(ms, 50), percentile(ms, 90), p, v)
}

// opLatencies records the end-to-end metrics of a series of operations
// timed in seconds, each operation's time also being its latency.
func (r *result) opLatencies(ops *scaled) {
	secs := ops.values()
	var busy float64
	ms := make([]float64, len(secs))
	for i, s := range secs {
		busy += s
		ms[i] = s * 1e3
	}
	var raw float64
	for _, s := range ops.raw {
		raw += s
	}
	fmt.Fprintf(os.Stderr, "host time: %d operations in %.4g s (%.4g s at nominal speed), median %.4g ms\n",
		len(ops.raw), raw, busy, median(ops.raw)*1e3)
	r.latencies(ms, busy)
}

// percentile returns the nearest-rank p-th percentile of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tail returns the highest of the p50, p90, p99, p99.9 and p99.99
// percentiles of sorted xs that has at least ten samples beyond it, its
// value and the sample count. Fewer than 20 samples fall back to p50.
func tail(sorted []float64) (p, v float64, n int) {
	n = len(sorted)
	p = 50
	for _, q := range []float64{90, 99, 99.9, 99.99} {
		if float64(n)*(1-q/100) >= 10-1e-9 {
			p = q
		}
	}
	return p, percentile(sorted, p), n
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload never used).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB returns the process's peak resident set in MB (VmHWM; Linux
// reports ru_maxrss in KB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}
