package trace_test

import (
	"runtime"
	"testing"

	"acb/internal/trace"
	"acb/internal/workload"
)

// countingWriter discards what it is given and counts the bytes.
type countingWriter struct{ n int }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += len(p)
	return len(p), nil
}

// TestPutMemoryAllocation: writing the suite's largest image, h264ref's
// 4136 pages, allocates about twice the block it writes (the payload and
// its frame), not a list of every word.
func TestPutMemoryAllocation(t *testing.T) {
	w, err := workload.ByName("h264ref")
	if err != nil {
		t.Fatal(err)
	}
	_, m := w.Build()
	var out countingWriter
	tw, err := trace.NewWriter(&out, trace.Header{Source: w.Name, Kind: "workload"})
	if err != nil {
		t.Fatal(err)
	}
	before := out.n
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := tw.PutMemory(m); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms1)
	block := out.n - before
	alloc := ms1.TotalAlloc - ms0.TotalAlloc
	t.Logf("memory block %d bytes, PutMemory allocated %d bytes", block, alloc)
	if block < 1<<20 {
		t.Fatalf("h264ref's memory block is %d bytes; the bound below would not test much", block)
	}
	if limit := 3 * uint64(block); alloc > limit {
		t.Fatalf("PutMemory allocated %d bytes for a %d-byte block, want at most %d", alloc, block, limit)
	}
}
