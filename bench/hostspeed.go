package main

import (
	"runtime"
	"time"
)

// The host this benchmark runs on is shared with other tenants, and the
// speed of its memory system drifts by tens of percent within minutes,
// taking the simulator's host time with it. So every host-time metric is
// reported at a nominal host speed: each operation's time is divided by a
// host-speed index, measured by a fixed reference kernel run just before
// it. Work that is not a series of operations (set-up, the layer probe's
// steps) is divided by the median of the samples taken around it. The
// kernel is this benchmark's own code, so a change to the program does
// not move it. README.md shows how closely it tracks the simulator.

const (
	kernelWords = 1 << 19 // 4 MB table, pointer-free (the GC never scans it)
	kernelSteps = 300_000 // random read-modify-writes per sample
	// flushWords sizes the buffer swept before each sample, so the kernel
	// starts from caches holding none of its table, whatever the program
	// left in them.
	flushWords = 1 << 22 // 32 MB
	// nominalKernel is index 1: a round figure just below the fastest
	// twentieth of 2,475 cold-cache samples taken over ten minutes on a
	// 2-vCPU Xeon VM (2.1 ms), so a quiet host reads about 1.
	nominalKernel = 2 * time.Millisecond
	// indexWindow is how many samples, centred on an operation's own, its
	// index is the median of.
	indexWindow = 5
)

// hostSpeed runs the reference kernel and turns its timings into speed
// indexes: kernel time over nominalKernel, so a slower host has a larger
// index. It keeps every sample of the run.
type hostSpeed struct {
	table, flush []uint64
	x            uint64
	samples      []float64
}

func newHostSpeed() *hostSpeed {
	return &hostSpeed{table: make([]uint64, kernelWords), flush: make([]uint64, flushWords), x: 1}
}

// sample collects garbage, so the kernel does not compete with a GC
// cycle, sweeps the flush buffer, and returns one index sample.
func (h *hostSpeed) sample() float64 {
	runtime.GC()
	for i := range h.flush {
		h.flush[i]++
	}
	x, mask := h.x, uint64(len(h.table)-1)
	t := time.Now()
	for i := 0; i < kernelSteps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		h.table[(x>>20)&mask] += x
	}
	idx := float64(time.Since(t)) / float64(nominalKernel)
	h.x = x
	h.samples = append(h.samples, idx)
	return idx
}

// mark returns a position in the run's samples for medianSince.
func (h *hostSpeed) mark() int { return len(h.samples) }

// medianSince returns the median of the samples taken since mark.
func (h *hostSpeed) medianSince(mark int) float64 { return median(h.samples[mark:]) }

// scaled is a series of operations timed in host time, each with the
// index sample taken just before it.
type scaled struct {
	raw, index []float64
}

func (s *scaled) add(raw, index float64) {
	s.raw = append(s.raw, raw)
	s.index = append(s.index, index)
}

// factor is operation i's index: the median of the indexWindow samples
// centred on its own.
func (s *scaled) factor(i int) float64 {
	return median(s.index[max(0, i-indexWindow/2):min(len(s.index), i+indexWindow/2+1)])
}

// values returns every operation's time at nominal host speed.
func (s *scaled) values() []float64 {
	out := make([]float64, len(s.raw))
	for i, r := range s.raw {
		out[i] = r / s.factor(i)
	}
	return out
}
