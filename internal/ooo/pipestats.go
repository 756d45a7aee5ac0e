package ooo

import (
	"fmt"
	"strings"
)

// PipeStats collects per-cycle pipeline utilization: how many slots each
// stage filled, and occupancy histograms for the ROB and issue queue.
// Collection is off by default (EnablePipeStats) — it adds a few counters
// per cycle.
type PipeStats struct {
	cycles int64

	fetchSlots  int64 // instructions fetched
	renameSlots int64 // instructions + selects allocated
	issueSlots  int64 // instructions issued
	retireSlots int64 // ROB entries committed

	// robOcc and iqOcc bucket occupancy samples into eighths of capacity
	// (index 8 = completely full).
	robOcc [9]int64
	iqOcc  [9]int64

	// lastRob/lastIQ are the buckets of the latest sample.
	lastRob, lastIQ int

	// maxRob/maxIQ are the largest raw occupancies ever sampled; the
	// differential-fuzz invariant pack checks them against the configured
	// capacities.
	maxRob int
	maxIQ  int
}

// EnablePipeStats turns on pipeline utilization collection.
func (c *Core) EnablePipeStats() {
	if c.pipe == nil {
		c.pipe = &PipeStats{}
	}
}

// PipeStats returns the collected utilization (nil unless enabled).
func (c *Core) PipeStats() *PipeStats { return c.pipe }

// sample records one cycle's occupancy.
func (p *PipeStats) sample(robOcc, robCap, iqOcc, iqCap int) {
	p.lastRob, p.lastIQ = bucket(robOcc, robCap), bucket(iqOcc, iqCap)
	p.repeat(1)
	if robOcc > p.maxRob {
		p.maxRob = robOcc
	}
	if iqOcc > p.maxIQ {
		p.maxIQ = iqOcc
	}
}

// repeat records n more cycles at the latest sample's occupancies: the
// cycles a quiescent stretch skips, in which no occupancy changes.
func (p *PipeStats) repeat(n int64) {
	p.cycles += n
	p.robOcc[p.lastRob] += n
	p.iqOcc[p.lastIQ] += n
}

// MaxOccupancy returns the largest ROB and issue-queue occupancies sampled
// over the run.
func (p *PipeStats) MaxOccupancy() (rob, iq int) { return p.maxRob, p.maxIQ }

func bucket(occ, capacity int) int {
	if capacity <= 0 {
		return 0
	}
	b := occ * 8 / capacity
	if b > 8 {
		b = 8
	}
	return b
}

// Utilization returns average slots-per-cycle for each stage.
func (p *PipeStats) Utilization() (fetch, rename, issue, retire float64) {
	if p.cycles == 0 {
		return
	}
	f := float64(p.cycles)
	return float64(p.fetchSlots) / f, float64(p.renameSlots) / f,
		float64(p.issueSlots) / f, float64(p.retireSlots) / f
}

// OccupancyShare returns the fraction of cycles each structure spent at
// or above 7/8 of its capacity (back-pressure indicator).
func (p *PipeStats) OccupancyShare() (robHigh, iqHigh float64) {
	if p.cycles == 0 {
		return
	}
	f := float64(p.cycles)
	return float64(p.robOcc[7]+p.robOcc[8]) / f, float64(p.iqOcc[7]+p.iqOcc[8]) / f
}

// String renders a compact report.
func (p *PipeStats) String() string {
	var b strings.Builder
	fe, rn, is, rt := p.Utilization()
	fmt.Fprintf(&b, "pipeline utilization over %d cycles (slots/cycle):\n", p.cycles)
	fmt.Fprintf(&b, "  fetch %.2f   rename %.2f   issue %.2f   retire %.2f\n", fe, rn, is, rt)
	robHigh, iqHigh := p.OccupancyShare()
	fmt.Fprintf(&b, "  ROB ≥7/8 full: %.1f%% of cycles   IQ ≥7/8 full: %.1f%%\n",
		robHigh*100, iqHigh*100)
	hist := func(name string, h [9]int64) {
		fmt.Fprintf(&b, "  %-4s occupancy/8:", name)
		for i, v := range h {
			fmt.Fprintf(&b, " %d:%.0f%%", i, float64(v)*100/float64(p.cycles))
		}
		b.WriteByte('\n')
	}
	if p.cycles > 0 {
		hist("ROB", p.robOcc)
		hist("IQ", p.iqOcc)
	}
	return b.String()
}
