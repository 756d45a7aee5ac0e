package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tracer keeps spans in memory for a traced run and writes them as
// Chrome trace-event JSON at exit. A nil *tracer records nothing.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	dropped int
}

// span is one timed call across a layer boundary. Spans of one request
// share ID; Parent names the span that caused this one.
type span struct {
	Name, Cat, ID, Parent string
	Start, End            time.Time
	Lane                  int // Chrome "tid": spans on one lane nest by time
	Args                  map[string]interface{}
}

// maxSpans bounds the trace's memory, whatever the measuring time.
const maxSpans = 50_000

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, s)
}

// write emits the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto).
func (t *tracer) write(path string) error {
	type event struct {
		Name string                 `json:"name"`
		Cat  string                 `json:"cat"`
		Ph   string                 `json:"ph"`
		Ts   float64                `json:"ts"`
		Dur  float64                `json:"dur"`
		Pid  int                    `json:"pid"`
		Tid  int                    `json:"tid"`
		Args map[string]interface{} `json:"args,omitempty"`
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]interface{}{}
		for k, v := range s.Args {
			args[k] = v
		}
		if s.ID != "" {
			args["id"] = s.ID
		}
		if s.Parent != "" {
			args["parent"] = s.Parent
		}
		events = append(events, event{
			Name: s.Name, Cat: s.Cat, Ph: "X",
			Ts:  float64(s.Start.Sub(t.t0).Nanoseconds()) / 1e3,
			Dur: float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Lane, Args: args,
		})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
	b, err := json.Marshal(map[string]interface{}{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       map[string]interface{}{"dropped_spans": t.dropped},
	})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// overheads collects operation durations of a traced run by key, traced
// and bare, for trace_overhead_pct.
type overheads struct {
	traced, bare map[string][]float64
}

func newOverheads() *overheads {
	return &overheads{traced: map[string][]float64{}, bare: map[string][]float64{}}
}

func (o *overheads) add(key string, traced bool, d time.Duration) {
	m := o.bare
	if traced {
		m = o.traced
	}
	m[key] = append(m[key], d.Seconds())
}

// pct is the relative extra time, in percent, of the traced operations
// over the bare ones: the summed medians of the keys seen both ways (0
// when there are none).
func (o *overheads) pct() float64 {
	var t, b float64
	for k, ts := range o.traced {
		if bs, ok := o.bare[k]; ok {
			t += median(ts)
			b += median(bs)
		}
	}
	if t == 0 || b == 0 {
		return 0
	}
	return (t/b - 1) * 100
}

// lanes hands out span lanes (Chrome tids) to concurrent pool jobs, so
// spans on one lane never overlap. Its buffer holds every lane.
type lanes chan int

func newLanes(first, n int) lanes {
	l := make(lanes, n)
	for i := 0; i < n; i++ {
		l <- first + i
	}
	return l
}

func (l lanes) take() int  { return <-l }
func (l lanes) put(id int) { l <- id }
