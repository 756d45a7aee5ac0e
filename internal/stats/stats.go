// Package stats provides the counters and report formatting shared by the
// simulator, the experiment harness and the benchmarks.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Counters is a named-counter bag with stable ordering for reports. It is
// safe for concurrent use: results flow through the concurrent service
// and the parallel experiment runner.
type Counters struct {
	mu     sync.Mutex
	names  []string
	values map[string]int64
}

// NewCounters returns an empty counter bag.
func NewCounters() *Counters {
	return &Counters{values: make(map[string]int64)}
}

// Add increments the named counter by delta, creating it at zero first.
func (c *Counters) Add(name string, delta int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.values[name]; !ok {
		c.names = append(c.names, name)
	}
	c.values[name] += delta
}

// Get returns the value of the named counter (zero if absent).
func (c *Counters) Get(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.values[name]
}

// Names returns the counter names in insertion order.
func (c *Counters) Names() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.names))
	copy(out, c.names)
	return out
}

// String formats all counters, one per line.
func (c *Counters) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var b strings.Builder
	for _, n := range c.names {
		fmt.Fprintf(&b, "%-32s %12d\n", n, c.values[n])
	}
	return b.String()
}

// Geomean returns the geometric mean of xs. It returns 1 for an empty
// slice and ignores non-positive entries (which would otherwise poison the
// log domain).
func Geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x <= 0 {
			continue
		}
		sum += math.Log(x)
		n++
	}
	if n == 0 {
		return 1
	}
	return math.Exp(sum / float64(n))
}

// Ratio returns a/b, or 0 when b is zero.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// PercentDelta returns (after/before - 1) * 100, or 0 when before is zero.
func PercentDelta(after, before float64) float64 {
	if before == 0 {
		return 0
	}
	return (after/before - 1) * 100
}

// Table accumulates rows and renders them with aligned columns; the
// experiment harness uses it to print figure/table data series.
type Table struct {
	Header []string
	Rows   [][]string
}

// NewTable returns a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{Header: header} }

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// cellFloat parses a cell as a float. Unlike Sscanf("%g") it rejects
// garbage-suffixed cells like "1.2x" instead of silently reading 1.2.
func cellFloat(cell string) (float64, bool) {
	v, err := strconv.ParseFloat(strings.TrimSpace(cell), 64)
	return v, err == nil
}

// SortByColumn sorts rows by the numeric value of the given column;
// numeric rows come first in ascending order, non-numeric rows (and rows
// too short to have the column) follow in string order.
func (t *Table) SortByColumn(col int) {
	cell := func(row []string) string {
		if col < 0 || col >= len(row) {
			return ""
		}
		return row[col]
	}
	sort.SliceStable(t.Rows, func(i, j int) bool {
		ci, cj := cell(t.Rows[i]), cell(t.Rows[j])
		a, okA := cellFloat(ci)
		b, okB := cellFloat(cj)
		switch {
		case okA && okB:
			return a < b
		case okA != okB:
			return okA
		default:
			return ci < cj
		}
	})
}

// String renders the table with aligned columns. Rows may have more cells
// than the header; extra columns get their own widths.
func (t *Table) String() string {
	ncols := len(t.Header)
	for _, row := range t.Rows {
		if len(row) > ncols {
			ncols = len(row)
		}
	}
	widths := make([]int, ncols)
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// tableJSON is the wire form of a Table. Header and rows are JSON arrays,
// so marshalling preserves column and row order exactly — the acbd
// service's content-addressed store round-trips tables through this and
// must reproduce them byte-identically.
type tableJSON struct {
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// MarshalJSON encodes the table as {"header":[...],"rows":[[...]]} with
// order preserved; nil slices encode as empty arrays, never null, so the
// encoding of a table is canonical.
func (t *Table) MarshalJSON() ([]byte, error) {
	w := tableJSON{Header: t.Header, Rows: t.Rows}
	if w.Header == nil {
		w.Header = []string{}
	}
	if w.Rows == nil {
		w.Rows = [][]string{}
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes a table marshalled by MarshalJSON, preserving
// header and row order.
func (t *Table) UnmarshalJSON(b []byte) error {
	var w tableJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	t.Header = w.Header
	t.Rows = w.Rows
	return nil
}

// Render renders the table in one of the -format values every CLI takes:
// "json" (MarshalJSON's canonical form, as the acbd API serves it, plus a
// newline), "csv" or "ascii".
func (t *Table) Render(format string) (string, error) {
	switch format {
	case "json":
		b, err := t.MarshalJSON()
		return string(b) + "\n", err
	case "csv":
		return t.CSV(), nil
	case "ascii":
		return t.String(), nil
	}
	return "", fmt.Errorf("unknown format %q (want json, csv or ascii)", format)
}

// CSV renders the table as RFC 4180 comma-separated values: cells
// containing a comma, quote or line break are quoted, with embedded
// quotes doubled.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRec := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(csvCell(c))
		}
		b.WriteByte('\n')
	}
	writeRec(t.Header)
	for _, row := range t.Rows {
		writeRec(row)
	}
	return b.String()
}

func csvCell(c string) string {
	if !strings.ContainsAny(c, ",\"\n\r") {
		return c
	}
	return `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
}

// Histogram is a fixed-bound latency histogram with Prometheus
// exposition semantics: Observe assigns each sample to the first bucket
// whose upper bound is >= the value, and Snapshot returns *cumulative*
// counts per bound plus the implicit +Inf bucket. Safe for concurrent
// use (jobs observe while the metrics handler scrapes).
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []int64 // per-bucket (not cumulative); len(bounds)+1, last = +Inf
	sum    float64
	count  int64
}

// NewHistogram returns a histogram over the given ascending upper bounds.
// It panics on unsorted bounds — a malformed exposition would silently
// corrupt every scrape.
func NewHistogram(bounds ...float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("stats: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	return &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.count++
}

// Snapshot returns the bucket upper bounds, the cumulative count at each
// bound (excluding +Inf — the total is Count), the sum of samples and the
// sample count.
func (h *Histogram) Snapshot() (bounds []float64, cumulative []int64, sum float64, count int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	bounds = make([]float64, len(h.bounds))
	copy(bounds, h.bounds)
	cumulative = make([]int64, len(h.bounds))
	var c int64
	for i := range h.bounds {
		c += h.counts[i]
		cumulative[i] = c
	}
	return bounds, cumulative, h.sum, h.count
}
