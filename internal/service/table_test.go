package service

import (
	"fmt"
	"testing"

	"acb/internal/stats"
)

// TestRequeueLogLine: a requeue without an error (every coordinator
// cause) logs no trailing ": ", and a scheduler retry keeps its error.
func TestRequeueLogLine(t *testing.T) {
	var lines []string
	tab := NewTable(Policy{IDPrefix: "c", Capacity: 4, Retain: 4, MaxAttempts: 6,
		Lookup: func(string) bool { return false }}, nil, stats.NewCounters(),
		func(format string, args ...interface{}) { lines = append(lines, fmt.Sprintf(format, args...)) })
	if _, _, err := tab.Submit(Request{Experiment: "fig6", Workloads: []string{"gcc"}, Budget: 1000}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ cause, errMsg, want string }{
		{"rehashed", "", "acbd: c000001 requeued (rehashed) after attempt 1/6"},
		{"retried", "boom", "acbd: c000001 requeued (retried) after attempt 2/6: boom"},
	} {
		job := tab.Claim("", nil)
		tab.Lock()
		tab.StartLocked(job, "w1", "j000001", nil)
		lines = lines[:0]
		tab.RequeueLocked(job, c.cause, c.errMsg)
		tab.Unlock()
		if len(lines) != 1 || lines[0] != c.want {
			t.Errorf("requeue (%s) logged %q, want %q", c.cause, lines, c.want)
		}
	}
}
