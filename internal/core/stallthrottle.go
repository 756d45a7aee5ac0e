package core

// StallThrottle is the paper's *rejected* pre-Dynamo throttling design
// (Sec. V-B): instead of measuring delivered performance, count the
// execution stalls predication creates ("waiting for dispatch at issue
// queue") and disable entries whose instances stall too much. The paper
// found it mis-throttles — "despite high stall counts, performing
// predication was favorable as saved pipeline flushes outweighed the
// additional stalls" — and it is kept here as the ablation baseline that
// motivates Dynamo (core.Config.Throttle = ThrottleStalls,
// the ablations experiment).
type StallThrottle struct {
	// StallLimit is the per-instance average body-stall budget (in gated
	// wakeup attempts) above which an entry is disabled.
	StallLimit float64
	// Window is the number of predicated instances averaged per decision.
	Window int64
	// DecayWindow is the number of *non-predicated* retired instances of a
	// blocked branch after which the block lifts and the entry gets a
	// fresh measurement window. Once an entry is blocked it stops
	// predicating, so no further Observe calls arrive for it — without
	// this decay path a block would be permanent, contradicting the
	// sliding-restart intent (and hiding phase changes). Defaults to
	// Window when zero.
	DecayWindow int64

	stats map[int]*stallStat
}

type stallStat struct {
	instances int64
	stalls    int64
	blocked   bool
	// retiredBlocked counts non-predicated retired instances seen while
	// blocked; reaching DecayWindow unblocks the entry.
	retiredBlocked int64
}

// NewStallThrottle returns a throttle with the given per-instance stall
// budget.
func NewStallThrottle(limit float64, window int64) *StallThrottle {
	if window <= 0 {
		window = 64
	}
	return &StallThrottle{StallLimit: limit, Window: window, DecayWindow: window,
		stats: make(map[int]*stallStat)}
}

// Allows reports whether the entry may still predicate.
func (s *StallThrottle) Allows(pc int) bool {
	st := s.stats[pc]
	return st == nil || !st.blocked
}

// Observe records one predicated instance's stall count and updates the
// block decision at each window boundary.
func (s *StallThrottle) Observe(pc int, stalls int64) {
	st := s.stats[pc]
	if st == nil {
		st = &stallStat{}
		s.stats[pc] = st
	}
	st.instances++
	st.stalls += stalls
	if st.instances%s.Window == 0 {
		avg := float64(st.stalls) / float64(st.instances)
		st.blocked = avg > s.StallLimit
		// Sliding restart so phase changes can unblock.
		st.instances = 0
		st.stalls = 0
		st.retiredBlocked = 0
	}
}

// ObserveRetired records one retired *non-predicated* instance of the
// branch. Blocked entries see only these (Allows suppresses predication,
// so Observe never fires for them); after DecayWindow of them the block
// lifts and the entry re-measures, which is what lets a phase change
// unblock an entry.
func (s *StallThrottle) ObserveRetired(pc int) {
	st := s.stats[pc]
	if st == nil || !st.blocked {
		return
	}
	st.retiredBlocked++
	window := s.DecayWindow
	if window <= 0 {
		window = s.Window
	}
	if st.retiredBlocked >= window {
		st.blocked = false
		st.retiredBlocked = 0
		st.instances = 0
		st.stalls = 0
	}
}

// Blocked returns the number of currently blocked entries (telemetry).
func (s *StallThrottle) Blocked() int {
	n := 0
	for _, st := range s.stats {
		if st.blocked {
			n++
		}
	}
	return n
}
