package stats

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestCounters(t *testing.T) {
	c := NewCounters()
	c.Add("a", 1)
	c.Add("b", 2)
	c.Add("a", 3)
	if c.Get("a") != 4 || c.Get("b") != 2 || c.Get("zzz") != 0 {
		t.Fatalf("unexpected values: a=%d b=%d", c.Get("a"), c.Get("b"))
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
	s := c.String()
	if !strings.Contains(s, "a") || !strings.Contains(s, "4") {
		t.Fatalf("string output: %q", s)
	}
}

// TestCountersConcurrent hammers one bag from many goroutines (run under
// -race in CI): every mutator and reader must be safe to interleave, and
// the totals must come out exact.
func TestCountersConcurrent(t *testing.T) {
	c := NewCounters()
	const goroutines, perG = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Add("shared", 1)
				c.Add(fmt.Sprintf("g%d", g), 2)
				_ = c.Get("shared")
				_ = c.Names()
				_ = c.String()
			}
		}(g)
	}
	wg.Wait()
	if got := c.Get("shared"); got != goroutines*perG {
		t.Fatalf("shared = %d, want %d", got, goroutines*perG)
	}
	for g := 0; g < goroutines; g++ {
		if got := c.Get(fmt.Sprintf("g%d", g)); got != 2*perG {
			t.Fatalf("g%d = %d, want %d", g, got, 2*perG)
		}
	}
	if len(c.Names()) != goroutines+1 {
		t.Fatalf("names = %v", c.Names())
	}
}

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Errorf("geomean(2,8) = %f", g)
	}
	if g := Geomean(nil); g != 1 {
		t.Errorf("geomean(nil) = %f, want 1", g)
	}
	// Non-positive entries ignored.
	if g := Geomean([]float64{4, 0, -1}); math.Abs(g-4) > 1e-9 {
		t.Errorf("geomean with junk = %f", g)
	}
}

// TestGeomeanBounds: the geometric mean lies between min and max
// (property-based).
func TestGeomeanBounds(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range raw {
			x = math.Abs(x)
			if x == 0 || math.IsInf(x, 0) || math.IsNaN(x) {
				continue
			}
			// Keep the product comfortably inside the float range; the
			// log-domain implementation is exact enough there.
			x = math.Mod(x, 1e6) + 0.5
			xs = append(xs, x)
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		if len(xs) == 0 {
			return Geomean(xs) == 1
		}
		g := Geomean(xs)
		return g >= lo*(1-1e-9) && g <= hi*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRatioAndDelta(t *testing.T) {
	if Ratio(6, 3) != 2 {
		t.Error("ratio")
	}
	if Ratio(6, 0) != 0 {
		t.Error("ratio by zero")
	}
	if d := PercentDelta(110, 100); math.Abs(d-10) > 1e-9 {
		t.Errorf("delta = %f", d)
	}
	if PercentDelta(1, 0) != 0 {
		t.Error("delta by zero")
	}
}

func TestTableFormatting(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("x", 1.5)
	tb.AddRow("longer-name", 42)
	s := tb.String()
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 { // header, separator, two rows
		t.Fatalf("lines = %d: %q", len(lines), s)
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Errorf("header: %q", lines[0])
	}
	if !strings.Contains(s, "1.500") {
		t.Error("float not formatted with 3 decimals")
	}
}

// TestTableRaggedRows: rows with more cells than the header used to
// panic String() with an index-out-of-range (widths was sized to the
// header).
func TestTableRaggedRows(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRow("x", "y", "extra-cell")
	tb.AddRow("longer-than-header", "v")
	s := tb.String()
	if !strings.Contains(s, "extra-cell") {
		t.Fatalf("extra cell dropped: %q", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d: %q", len(lines), s)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRow(1, 2)
	want := "a,b\n1,2\n"
	if got := tb.CSV(); got != want {
		t.Fatalf("csv = %q, want %q", got, want)
	}
}

// TestTableCSVQuoting: cells containing commas, quotes or line breaks
// must be RFC-4180 quoted (workload "Mirrors" strings contain commas).
func TestTableCSVQuoting(t *testing.T) {
	tb := NewTable("workload", "mirrors")
	tb.AddRow("omnetpp", "history pollution, recovered by PBH")
	tb.AddRow("quoted", `says "hi"`)
	tb.AddRow("multiline", "a\nb")
	want := "workload,mirrors\n" +
		"omnetpp,\"history pollution, recovered by PBH\"\n" +
		"quoted,\"says \"\"hi\"\"\"\n" +
		"multiline,\"a\nb\"\n"
	if got := tb.CSV(); got != want {
		t.Fatalf("csv = %q, want %q", got, want)
	}
}

// TestTableJSONRoundTrip: marshalling preserves header and row order
// exactly, and unmarshal(marshal(t)) reproduces the table — including its
// String/CSV renderings — byte for byte.
func TestTableJSONRoundTrip(t *testing.T) {
	tb := NewTable("workload", "speedup", "note")
	tb.AddRow("zeta", 1.25, "last name first")
	tb.AddRow("alpha", 0.975, `commas, "quotes", and
newlines`)
	tb.AddRow("mid", 42)

	b, err := json.Marshal(tb)
	if err != nil {
		t.Fatal(err)
	}
	var got Table
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Header, tb.Header) || !reflect.DeepEqual(got.Rows, tb.Rows) {
		t.Fatalf("round trip changed the table:\n got %+v\nwant %+v", got, *tb)
	}
	if got.String() != tb.String() || got.CSV() != tb.CSV() {
		t.Fatal("round trip changed the rendered output")
	}
	b2, err := json.Marshal(&got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatalf("re-marshal not byte-identical:\n%s\n%s", b, b2)
	}
}

// TestTableJSONEmpty: empty tables encode with empty arrays, not null,
// and survive the round trip.
func TestTableJSONEmpty(t *testing.T) {
	b, err := json.Marshal(&Table{})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"header":[],"rows":[]}`; string(b) != want {
		t.Fatalf("empty table = %s, want %s", b, want)
	}
	var got Table
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Header) != 0 || len(got.Rows) != 0 {
		t.Fatalf("round trip of empty table: %+v", got)
	}
}

// TestTableRender: each -format value renders through the table's own
// serializer (JSON with a trailing newline), and an unknown one is an
// error.
func TestTableRender(t *testing.T) {
	tab := NewTable("a", "b")
	tab.AddRow("x,y", 1.5)
	js, _ := tab.MarshalJSON()
	for format, want := range map[string]string{"json": string(js) + "\n", "csv": tab.CSV(), "ascii": tab.String()} {
		if got, err := tab.Render(format); err != nil || got != want {
			t.Errorf("Render(%q) = %q, %v; want %q", format, got, err, want)
		}
	}
	if _, err := tab.Render("xml"); err == nil {
		t.Error("Render accepted an unknown format")
	}
}

func TestTableSortByColumn(t *testing.T) {
	tb := NewTable("k", "v")
	tb.AddRow("b", 3.0)
	tb.AddRow("a", 1.0)
	tb.AddRow("c", 2.0)
	tb.SortByColumn(1)
	if tb.Rows[0][0] != "a" || tb.Rows[1][0] != "c" || tb.Rows[2][0] != "b" {
		t.Fatalf("sorted rows: %v", tb.Rows)
	}
}

// TestTableSortByColumnGarbage: garbage-suffixed cells like "1.2x" are
// not numbers (Sscanf "%g" used to read them as 1.2); they sort after the
// numeric rows, in string order.
func TestTableSortByColumnGarbage(t *testing.T) {
	tb := NewTable("k", "v")
	tb.AddRow("garbage-hi", "9.9x")
	tb.AddRow("big", "10.0")
	tb.AddRow("garbage-lo", "0.1x")
	tb.AddRow("small", "2.0")
	tb.SortByColumn(1)
	got := []string{tb.Rows[0][0], tb.Rows[1][0], tb.Rows[2][0], tb.Rows[3][0]}
	want := []string{"small", "big", "garbage-lo", "garbage-hi"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sorted rows: %v, want %v", got, want)
		}
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0.1, 1, 10)
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	bounds, cumulative, sum, count := h.Snapshot()
	if len(bounds) != 3 || bounds[0] != 0.1 || bounds[2] != 10 {
		t.Fatalf("bounds = %v", bounds)
	}
	// Prometheus le semantics: a sample equal to a bound lands in it.
	want := []int64{2, 3, 4}
	for i := range cumulative {
		if cumulative[i] != want[i] {
			t.Fatalf("cumulative = %v, want %v", cumulative, want)
		}
	}
	if count != 5 {
		t.Fatalf("count = %d", count)
	}
	if sum != 102.65 {
		t.Fatalf("sum = %v", sum)
	}
}

func TestHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted bounds did not panic")
		}
	}()
	NewHistogram(1, 1)
}
