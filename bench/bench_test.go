package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"acb/internal/sample"
)

// TestTracedRunMatchesBare proves the traced wrappers pass every call
// through unchanged: a wrapped engine's ooo.Result is byte-identical to
// the bare engine's, for the baseline and for ACB, and so is a sampled
// run's estimate with a traced warming predictor.
func TestTracedRunMatchesBare(t *testing.T) {
	ws, err := workloadsNamed([]string{"lammps", "gcc", "mcf"})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range buildInputs(ws, 5) {
		for _, scheme := range []string{"baseline", "acb"} {
			bare, err := simulate(&in, scheme, 50_000, false)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := simulate(&in, scheme, 50_000, true)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := json.Marshal(bare.res)
			tb, _ := json.Marshal(traced.res)
			if !bytes.Equal(b, tb) || !reflect.DeepEqual(bare.res, traced.res) {
				t.Errorf("%s/%s: traced result differs from bare", in.name, scheme)
			}
			if traced.stats.bpuCalls() == 0 {
				t.Errorf("%s/%s: no predictor calls counted", in.name, scheme)
			}
			hooks := traced.stats.hooks[hookOnRetireTick]
			if (scheme == "acb") != (hooks > 0) {
				t.Errorf("%s/%s: %d retire-tick hook calls counted", in.name, scheme, hooks)
			}
		}
	}

	in := &buildInputs(ws[:1], 5)[0]
	var ests [2]*sample.Estimate
	for i, record := range []bool{false, true} {
		run, err := runSampledOnce(in, 300_000, record, nil)
		if err != nil {
			t.Fatal(err)
		}
		ests[i] = run.est
	}
	a, _ := json.Marshal(ests[0])
	b, _ := json.Marshal(ests[1])
	if !bytes.Equal(a, b) {
		t.Error("traced sampled estimate differs from bare")
	}
}

func TestTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p, v float64
	}{
		{10, 50, 5},     // too few for any percentile: the median
		{19, 50, 10},    // 9.5 beyond p50
		{20, 50, 10},    // 10 beyond p50
		{99, 50, 50},    // 9.9 beyond p90
		{100, 90, 90},   // 10 beyond p90
		{999, 90, 900},  // 9.99 beyond p99
		{1000, 99, 990}, // 10 beyond p99
		{10000, 99.9, 9990},
		{100000, 99.99, 99990},
		{1000000, 99.99, 999900},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		p, v, n := tail(xs)
		if p != tc.p || v != tc.v || n != tc.n {
			t.Errorf("tail of 1..%d = p%g %g (n %d), want p%g %g", tc.n, p, v, n, tc.p, tc.v)
		}
	}
}

// TestScaledValues checks that each operation is divided by the median
// of the index samples centred on its own, the window cut at the ends.
func TestScaledValues(t *testing.T) {
	var s scaled
	for i, idx := range []float64{1, 1, 1, 100, 4, 4, 4} {
		s.add(float64(i+1)*12, idx)
	}
	// Windows: {1,1,1} {1,1,1,100} {1,1,1,100,4} {1,1,100,4,4}
	// {1,100,4,4,4} {100,4,4,4} {4,4,4}: the outlier never decides.
	want := []float64{12, 24, 36, 12, 15, 18, 21}
	if got := s.values(); !reflect.DeepEqual(got, want) {
		t.Errorf("values %v, want %v", got, want)
	}
}

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) (*benchmarkJSON, map[string]json.RawMessage) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &keys); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return &bj, keys
}

// TestBenchmarkJSON checks BENCHMARK.json against the benchmark's format
// rules and against the metrics and workloads this program reports.
func TestBenchmarkJSON(t *testing.T) {
	bj, keys := loadBenchmarkJSON(t)
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := "command,end_to_end,paths,per_layer,run_seconds,workloads"; strings.Join(got, ",") != want {
		t.Errorf("keys %v, want %s", got, want)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}

	if len(bj.Workloads) < 2 || len(bj.Workloads) > 8 {
		t.Errorf("%d workloads, want 2-8", len(bj.Workloads))
	}
	var wnames []string
	for _, w := range bj.Workloads {
		name(w.Name)
		wnames = append(wnames, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	sort.Strings(wnames)
	if !reflect.DeepEqual(wnames, workloadNames()) {
		t.Errorf("workloads %v, program runs %v", wnames, workloadNames())
	}

	if n := len(bj.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1-16", n)
	}
	if n := len(bj.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1-128", n)
	}
	var e2e, layer []metricDef
	maxBound := 0.0
	for _, m := range bj.EndToEnd {
		name(m.Name)
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Bound > maxBound {
			maxBound = m.Bound
		}
	}
	for _, m := range bj.EndToEnd {
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower" || m.Bound != maxBound) {
			t.Errorf("setup_s must be in s, lower is better, with the largest bound")
		}
	}
	for _, m := range bj.PerLayer {
		name(m.Name)
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	for _, m := range append(append([]metricDef(nil), e2e...), layer...) {
		if !unitRE.MatchString(m.unit) || (m.better != "lower" && m.better != "higher") {
			t.Errorf("%s: bad unit %q or direction %q", m.name, m.unit, m.better)
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) || !reflect.DeepEqual(layer, perLayer) {
		t.Error("BENCHMARK.json's metrics differ from the program's endToEnd/perLayer lists")
	}

	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1-60", bj.RunSeconds)
	}
	if len(bj.Command) == 0 || len(bj.Command) > 32 {
		t.Errorf("command has %d strings", len(bj.Command))
	}
	pathRE := regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
	if len(bj.Paths) < 1 || len(bj.Paths) > 16 {
		t.Errorf("%d paths, want 1-16", len(bj.Paths))
	}
	for _, p := range bj.Paths {
		st, err := os.Stat(filepath.Join("..", p))
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") || err != nil || !st.IsDir() {
			t.Errorf("path %q: not a directory of the repository (%v)", p, err)
		}
	}
}

// TestSmoke runs every workload at tiny sizes, untraced and traced, and
// checks that each prints exactly BENCHMARK.json's metrics with their
// units and that no operation fails.
func TestSmoke(t *testing.T) {
	bj, _ := loadBenchmarkJSON(t)
	units := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bj.EndToEnd {
		units[false][m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		units[true][m.Name] = m.Unit
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			cfg := settings{
				seed: 3, measure: time.Second, trace: traced, setupReps: 1,
				traceOut: filepath.Join(t.TempDir(), "trace.json"), workDir: t.TempDir(),
				fig6Budget: 5_000, sampledBudget: 300_000, fleetBudget: 5_000, probeBudget: 5_000,
			}
			res, err := execute(name, workloads[name], cfg)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			line, err := report(res, traced)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			var out struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(line), &out); err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s (traced %v): correct=%v attempted=%d failed=%d", name, traced, out.Correct, out.Attempted, out.Failed)
			}
			got := map[string]string{}
			for k, m := range out.Metrics {
				got[k] = m.Unit
			}
			if !reflect.DeepEqual(got, units[traced]) {
				t.Errorf("%s (traced %v): metrics %v, want %v", name, traced, got, units[traced])
			}
			if traced {
				if _, err := os.Stat(cfg.traceOut); err != nil {
					t.Errorf("%s: no trace written: %v", name, err)
				}
			}
		}
	}
}
