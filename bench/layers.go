package main

import (
	"fmt"
	"time"

	"acb/internal/bpu"
	"acb/internal/ooo"
)

// A traced run puts pass-through wrappers between the core and its
// predictor and scheme. They count every call and record the calls'
// arguments; after the run, outside its timing, the recording is replayed
// against a fresh predictor or scheme, and the replay's time is the
// layer's self time. Timing each call in place would not do: the calls
// take a few nanoseconds, about as long as reading the clock.

// Predictor and scheme methods, indexing the wrappers' counters.
const (
	bpuPredict = iota
	bpuUpdate
	bpuHistory
	bpuSetHistory
	bpuPushHistory
	numBPU
)

const (
	hookShouldPredicate = iota
	hookOnFetch
	hookOnFlush
	hookOnBranchResolve
	hookOnRetireTick
	numHooks
)

var hookNames = [numHooks]string{"should_predicate", "on_fetch", "on_flush", "on_branch_resolve", "on_retire_tick"}

// layerStats counts the wrapped calls of one or more simulations.
type layerStats struct {
	bpu   [numBPU]int64
	hooks [numHooks]int64
}

func (l *layerStats) add(o *layerStats) {
	for i := range l.bpu {
		l.bpu[i] += o.bpu[i]
	}
	for i := range l.hooks {
		l.hooks[i] += o.hooks[i]
	}
}

func (l *layerStats) bpuCalls() int64 {
	var n int64
	for _, c := range l.bpu {
		n += c
	}
	return n
}

func (l *layerStats) hookCalls() int64 {
	var n int64
	for _, c := range l.hooks {
		n += c
	}
	return n
}

// bpuCall is one recorded predictor call.
type bpuCall struct {
	op        uint8
	flag, res bool   // Predict: oracleTaken and the predicted direction; Update, PushHistory: taken
	arg       uint64 // pc; SetHistory: the history
}

// bpuLog records predictor calls, the first limit of them (0 = all).
type bpuLog struct {
	limit int
	calls []bpuCall
	preds []bpu.Prediction // Update's predictions, in call order
}

func (l *bpuLog) record(c bpuCall) bool {
	if l == nil || (l.limit > 0 && len(l.calls) >= l.limit) {
		return false
	}
	l.calls = append(l.calls, c)
	return true
}

// run replays the calls against p, returning their time and how many
// predictions differ from the recorded ones.
func (l *bpuLog) run(p bpu.Predictor) (time.Duration, int) {
	u, diverged := 0, 0
	t := time.Now()
	for i := range l.calls {
		c := &l.calls[i]
		switch c.op {
		case bpuPredict:
			if p.Predict(c.arg, c.flag).Taken != c.res {
				diverged++
			}
		case bpuUpdate:
			p.Update(c.arg, l.preds[u], c.flag)
			u++
		case bpuHistory:
			p.History()
		case bpuSetHistory:
			p.SetHistory(c.arg)
		case bpuPushHistory:
			p.PushHistory(c.arg, c.flag)
		}
	}
	return time.Since(t), diverged
}

// replayTime returns the recorded calls' cost in fresh, a predictor built
// like the recorded one: the replay's time less the same loop's over a
// no-op predictor. A replay that predicts differently is an error.
func (l *bpuLog) replayTime(fresh bpu.Predictor) (time.Duration, error) {
	d, diverged := l.run(fresh)
	if diverged > 0 {
		return 0, fmt.Errorf("predictor replay diverged on %d of %d calls", diverged, len(l.calls))
	}
	loop, _ := l.run(nopPredictor{})
	return max(d-loop, 0), nil
}

type nopPredictor struct{}

func (nopPredictor) Predict(uint64, bool) bpu.Prediction { return bpu.Prediction{} }
func (nopPredictor) Update(uint64, bpu.Prediction, bool) {}
func (nopPredictor) History() uint64                     { return 0 }
func (nopPredictor) SetHistory(uint64)                   {}
func (nopPredictor) PushHistory(uint64, bool)            {}
func (nopPredictor) Name() string                        { return "nop" }

// tracedPredictor is a pass-through bpu.Predictor that counts every call
// and, with a log, records it.
type tracedPredictor struct {
	inner bpu.Predictor
	st    *layerStats
	log   *bpuLog // nil: count only
}

func (p *tracedPredictor) Predict(pc uint64, oracleTaken bool) bpu.Prediction {
	p.st.bpu[bpuPredict]++
	r := p.inner.Predict(pc, oracleTaken)
	p.log.record(bpuCall{op: bpuPredict, flag: oracleTaken, res: r.Taken, arg: pc})
	return r
}

func (p *tracedPredictor) Update(pc uint64, pred bpu.Prediction, taken bool) {
	p.st.bpu[bpuUpdate]++
	if p.log.record(bpuCall{op: bpuUpdate, flag: taken, arg: pc}) {
		p.log.preds = append(p.log.preds, pred)
	}
	p.inner.Update(pc, pred, taken)
}

func (p *tracedPredictor) History() uint64 {
	p.st.bpu[bpuHistory]++
	p.log.record(bpuCall{op: bpuHistory})
	return p.inner.History()
}

func (p *tracedPredictor) SetHistory(h uint64) {
	p.st.bpu[bpuSetHistory]++
	p.log.record(bpuCall{op: bpuSetHistory, arg: h})
	p.inner.SetHistory(h)
}

func (p *tracedPredictor) PushHistory(pc uint64, taken bool) {
	p.st.bpu[bpuPushHistory]++
	p.log.record(bpuCall{op: bpuPushHistory, flag: taken, arg: pc})
	p.inner.PushHistory(pc, taken)
}

func (p *tracedPredictor) Name() string { return p.inner.Name() }

// Clone implements bpu.Cloner for sample.Run's window checkpoints. The
// clone is bare: only the fast-forward warming calls are traced.
func (p *tracedPredictor) Clone() bpu.Predictor {
	return p.inner.(bpu.Cloner).Clone()
}

// shouldCall is one recorded ShouldPredicate call and its answer.
type shouldCall struct {
	pc, conf, recon int
	predTaken, ok   bool
	hist            uint64
}

// hookLog records every scheme call.
type hookLog struct {
	ops      []uint8
	should   []shouldCall
	fetches  []ooo.FetchEvent
	resolves []ooo.ResolveEvent
	ticks    []int64
}

// run replays the calls against s, returning their time and how many
// ShouldPredicate answers differ from the recorded ones.
func (l *hookLog) run(s ooo.Scheme) (time.Duration, int) {
	var is, ifc, ir, it, diverged int
	t := time.Now()
	for _, op := range l.ops {
		switch op {
		case hookShouldPredicate:
			c := &l.should[is]
			is++
			if spec, ok := s.ShouldPredicate(c.pc, c.predTaken, c.conf, c.hist); ok != c.ok || spec.ReconPC != c.recon {
				diverged++
			}
		case hookOnFetch:
			s.OnFetch(l.fetches[ifc])
			ifc++
		case hookOnFlush:
			s.OnFlush()
		case hookOnBranchResolve:
			s.OnBranchResolve(l.resolves[ir])
			ir++
		case hookOnRetireTick:
			s.OnRetireTick(l.ticks[it])
			it++
		}
	}
	return time.Since(t), diverged
}

// replayTime is bpuLog.replayTime for a scheme.
func (l *hookLog) replayTime(fresh ooo.Scheme) (time.Duration, error) {
	d, diverged := l.run(fresh)
	if diverged > 0 {
		return 0, fmt.Errorf("scheme replay diverged on %d of %d predication decisions", diverged, len(l.should))
	}
	loop, _ := l.run(nopScheme{})
	return max(d-loop, 0), nil
}

type nopScheme struct{}

func (nopScheme) Name() string { return "nop" }
func (nopScheme) ShouldPredicate(int, bool, int, uint64) (ooo.PredSpec, bool) {
	return ooo.PredSpec{}, false
}
func (nopScheme) OnFetch(ooo.FetchEvent)           {}
func (nopScheme) OnFlush()                         {}
func (nopScheme) OnBranchResolve(ooo.ResolveEvent) {}
func (nopScheme) OnRetireTick(int64)               {}

// tracedScheme is a pass-through ooo.Scheme that counts and records every
// call.
type tracedScheme struct {
	inner ooo.Scheme
	st    *layerStats
	log   *hookLog
}

func (s *tracedScheme) Name() string { return s.inner.Name() }

func (s *tracedScheme) ShouldPredicate(pc int, predTaken bool, conf int, hist uint64) (ooo.PredSpec, bool) {
	s.st.hooks[hookShouldPredicate]++
	spec, ok := s.inner.ShouldPredicate(pc, predTaken, conf, hist)
	s.log.ops = append(s.log.ops, hookShouldPredicate)
	s.log.should = append(s.log.should, shouldCall{pc: pc, conf: conf, recon: spec.ReconPC, predTaken: predTaken, ok: ok, hist: hist})
	return spec, ok
}

func (s *tracedScheme) OnFetch(ev ooo.FetchEvent) {
	s.st.hooks[hookOnFetch]++
	s.log.ops = append(s.log.ops, hookOnFetch)
	s.log.fetches = append(s.log.fetches, ev)
	s.inner.OnFetch(ev)
}

func (s *tracedScheme) OnFlush() {
	s.st.hooks[hookOnFlush]++
	s.log.ops = append(s.log.ops, hookOnFlush)
	s.inner.OnFlush()
}

func (s *tracedScheme) OnBranchResolve(ev ooo.ResolveEvent) {
	s.st.hooks[hookOnBranchResolve]++
	s.log.ops = append(s.log.ops, hookOnBranchResolve)
	s.log.resolves = append(s.log.resolves, ev)
	s.inner.OnBranchResolve(ev)
}

func (s *tracedScheme) OnRetireTick(cycle int64) {
	s.st.hooks[hookOnRetireTick]++
	s.log.ops = append(s.log.ops, hookOnRetireTick)
	s.log.ticks = append(s.log.ticks, cycle)
	s.inner.OnRetireTick(cycle)
}
