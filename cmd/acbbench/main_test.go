package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// snap builds a snapshot from rows given as "workload/scheme" →
// (normalized throughput, allocs/kcycle), summarized the way measure does.
func snap(rows map[string][2]float64) *Snapshot {
	s := &Snapshot{Budget: 400_000}
	keys := make([]string, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		name, sch, _ := strings.Cut(k, "/")
		v := rows[k]
		s.Rows = append(s.Rows, WorkloadRow{Name: name, Scheme: sch, Normalized: v[0], AllocsPerKCyc: v[1]})
	}
	s.Schemes = summarize(s.Rows)
	return s
}

func TestGate(t *testing.T) {
	base := map[string][2]float64{
		"gcc/baseline": {1.0, 2}, "gcc/acb": {0.5, 100},
		"mcf/baseline": {2.0, 0}, "mcf/acb": {0.5, 50},
	}
	with := func(edit func(map[string][2]float64)) map[string][2]float64 {
		m := make(map[string][2]float64, len(base))
		for k, v := range base {
			m[k] = v
		}
		edit(m)
		return m
	}
	cases := []struct {
		name string
		base *Snapshot
		cur  *Snapshot
		want []string // substrings, one per expected failure; nil = pass
	}{
		{name: "identical", base: snap(base), cur: snap(base)},
		{name: "acb within tolerance", base: snap(base), cur: snap(with(func(m map[string][2]float64) {
			m["gcc/acb"] = [2]float64{0.47, 100}
		}))},
		{name: "acb loss masked by baseline win", base: snap(base), cur: snap(with(func(m map[string][2]float64) {
			m["gcc/baseline"] = [2]float64{3.0, 2}
			m["mcf/baseline"] = [2]float64{6.0, 0}
			m["gcc/acb"] = [2]float64{0.4, 100}
			m["mcf/acb"] = [2]float64{0.4, 50}
		})), want: []string{"acb normalized throughput"}},
		{name: "baseline loss", base: snap(base), cur: snap(with(func(m map[string][2]float64) {
			m["mcf/baseline"] = [2]float64{1.0, 0}
		})), want: []string{"baseline normalized throughput"}},
		{name: "missing row", base: snap(base), cur: snap(with(func(m map[string][2]float64) {
			delete(m, "mcf/acb")
		})), want: []string{"mcf/acb missing"}},
		{name: "missing scheme", base: snap(base), cur: snap(with(func(m map[string][2]float64) {
			delete(m, "gcc/acb")
			delete(m, "mcf/acb")
		})), want: []string{"scheme acb missing", "gcc/acb missing", "mcf/acb missing"}},
		{name: "new row ungated", base: snap(base), cur: snap(with(func(m map[string][2]float64) {
			m["xz/acb"] = [2]float64{0.9, 900}
		}))},
		{name: "alloc growth within slack", base: snap(base), cur: snap(with(func(m map[string][2]float64) {
			m["mcf/baseline"] = [2]float64{2.0, 0.4}
			m["gcc/acb"] = [2]float64{0.5, 105}
		}))},
		{name: "alloc growth", base: snap(base), cur: snap(with(func(m map[string][2]float64) {
			m["gcc/acb"] = [2]float64{0.5, 106}
		})), want: []string{"gcc/acb allocs/kcycle"}},
		{name: "budget mismatch", base: snap(base), cur: func() *Snapshot {
			s := snap(base)
			s.Budget = 200_000
			return s
		}(), want: []string{"budget mismatch"}},
		{name: "legacy baseline without summaries", base: func() *Snapshot {
			s := snap(base)
			s.Schemes = nil
			return s
		}(), cur: snap(base), want: []string{"no per-scheme summary"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fails := gate(tc.base, tc.cur, io.Discard)
			if len(fails) != len(tc.want) {
				t.Fatalf("failures %q, want %d matching %q", fails, len(tc.want), tc.want)
			}
			for i, w := range tc.want {
				if !strings.Contains(fails[i], w) {
					t.Errorf("failure %d = %q, want it to mention %q", i, fails[i], w)
				}
			}
		})
	}
}

func TestSummarizeIsPerScheme(t *testing.T) {
	s := summarize([]WorkloadRow{
		{Scheme: "baseline", Normalized: 1, AllocsPerKCyc: 0},
		{Scheme: "baseline", Normalized: 4, AllocsPerKCyc: 2},
		{Scheme: "acb", Normalized: 8, AllocsPerKCyc: 30},
	})
	if g := s["baseline"].NormalizedCPSGeomean; g < 1.999 || g > 2.001 {
		t.Errorf("baseline geomean %v, want 2", g)
	}
	if m := s["baseline"].AllocsPerKCycMean; m != 1 {
		t.Errorf("baseline allocs mean %v, want 1", m)
	}
	if g := s["acb"].NormalizedCPSGeomean; g < 7.999 || g > 8.001 {
		t.Errorf("acb geomean %v, want 8", g)
	}
}

// TestCompareLeavesBaselineUnchanged: a gate run whose -out names its
// -compare baseline — as `-compare BENCH_cycleloop.json` with the default
// -out does — gates against the file as it was and leaves it byte for
// byte unchanged. The baseline is one no run can match, so the gate must
// fail citing it.
func TestCompareLeavesBaselineUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("measures the Fig. 6 sweep")
	}
	path := filepath.Join(t.TempDir(), "BENCH_cycleloop.json")
	base := &Snapshot{Budget: 2_000, Schemes: map[string]SchemeSummary{
		"baseline": {NormalizedCPSGeomean: 1e9},
		"acb":      {NormalizedCPSGeomean: 1e9},
	}}
	want, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	code := run([]string{"-compare", path, "-out", path, "-budget", "2000", "-repeat", "1"}, &stdout, &stderr)
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the gate run rewrote its baseline:\n%s", got)
	}
	if code != 1 || !strings.Contains(stderr.String(), "baseline 1e+09") {
		t.Fatalf("exit %d, stderr %q: want a gate failure against the unchanged baseline", code, stderr.String())
	}
}
