package ooo

import (
	"fmt"
	"maps"
	"slices"

	"acb/internal/bpu"
	"acb/internal/isa"
)

// Fork returns a deep copy of the core that runs scheme (nil = the
// baseline) from here on, as if the core had run under it so far. Take
// it where RunContext (or Run, RunWindow) returned, at a cycle boundary,
// while no predication context exists. A scheme that has not changed the
// run yet, such as ACB in its dormant first Dynamo epoch
// (core.ACB.Dormant), leaves the core in the state a baseline run would
// have reached, so the fork continues as that run would. The scheme's own
// state is the caller's.
//
// The fork and the receiver then run independently. The predictor
// (bpu.Cloner), the cache hierarchy, the CPI stack, PerBranch, the
// pipeline statistics and every pipeline structure are copied, and both
// memories are copy-on-write clones (isa.Memory.CloneCOW). Only the
// configuration and the program are shared. Fork panics if a context is
// open or live, if a ROB entry or fetched instruction belongs to one, if
// a path snapshot or a pending select micro-op exists, if a trace ring is
// attached, or if the predictor cannot be cloned.
func (c *Core) Fork(scheme Scheme) *Core {
	if why := c.forkBlocker(); why != "" {
		panic("ooo: Fork with " + why)
	}
	cl, ok := c.pred.(bpu.Cloner)
	if !ok {
		panic(fmt.Sprintf("ooo: Fork: predictor %s is not a bpu.Cloner", c.pred.Name()))
	}
	f := *c
	f.pred = cl.Clone()
	f.hier = c.hier.Clone()
	f.scheme = scheme

	f.rob = c.rob.clone()
	f.prf = slices.Clone(c.prf)
	f.freeList = cloneCap(c.freeList)
	f.iq = f.remapEntries(c.iq)
	f.iqSpare = f.remapEntries(c.iqSpare)
	f.waitHead = slices.Clone(c.waitHead)
	f.waitRecs = f.remapRecs(c.waitRecs)
	f.woken = f.remapRecs(c.woken)
	f.loads = seqList{buf: cloneCap(c.loads.buf), head: c.loads.head}
	f.stores = seqList{buf: cloneCap(c.stores.buf), head: c.stores.head}

	// Live slots hold no context (forkBlocker); stale ones are cleared so
	// the fork keeps none of the receiver's contexts reachable.
	f.fetchQ = slices.Clone(c.fetchQ)
	for i := range f.fetchQ {
		f.fetchQ[i].ctx, f.fetchQ[i].ctxClose = nil, nil
	}
	f.liveCtxs = nil
	f.snapshots = nil
	f.pendingSelects = nil

	emu := *c.emu
	emu.Mem = c.emu.Mem.CloneCOW()
	f.emu = &emu
	f.events = make([]isa.Event, 0, cap(c.events))
	f.outcomes = cloneCap(c.outcomes)
	if c.commitMem != nil {
		f.commitMem = c.commitMem.CloneCOW()
	}

	f.compRing = make([][]compRec, len(c.compRing))
	for i, b := range c.compRing {
		f.compRing[i] = cloneCap(b)
	}

	f.perPC = maps.Clone(c.perPC)
	for pc, st := range f.perPC {
		cp := *st
		f.perPC[pc] = &cp
	}
	if c.pipe != nil {
		p := *c.pipe
		f.pipe = &p
	}
	if c.cpi != nil {
		p := *c.cpi
		f.cpi = &p
	}
	return &f
}

// forkBlocker names what keeps the core from forking, or returns "".
func (c *Core) forkBlocker() string {
	switch {
	case c.ctx != nil || c.ctxPhase != 0 || c.pendingClose != nil || len(c.liveCtxs) > 0:
		return "a predication context open or live"
	case len(c.snapshots) > 0:
		return "a correct-path snapshot"
	case len(c.pendingSelects) > 0:
		return "a pending select micro-op"
	case c.trace != nil:
		return "a trace ring attached"
	}
	for s := c.rob.headSeq; s < c.rob.nextSeq; s++ {
		if e := c.rob.at(s); e != nil && e.ctx != nil {
			return "a ROB entry of a predication context"
		}
	}
	for i := 0; i < c.fqLen; i++ {
		if fi := &c.fetchQ[(c.fqHead+i)&c.fqMask]; fi.ctx != nil || fi.ctxClose != nil {
			return "a fetched instruction of a predication context"
		}
	}
	return ""
}

// clone copies the ROB; entries keep no context (forkBlocker checked the
// live ones, and the stale ones are cleared).
func (r *rob) clone() *rob {
	n := *r
	n.entries = slices.Clone(r.entries)
	for i := range n.entries {
		n.entries[i].ctx = nil
	}
	return &n
}

// entry returns the fork's ROB slot for e, an entry of the core it was
// forked from: slots are addressed by seq in both.
func (c *Core) entry(e *robEntry) *robEntry {
	if e == nil {
		return nil
	}
	return &c.rob.entries[e.seq&c.rob.mask]
}

// remapEntries copies es, pointing each element at the fork's ROB.
func (c *Core) remapEntries(es []*robEntry) []*robEntry {
	out := make([]*robEntry, len(es), cap(es))
	for i, e := range es {
		out[i] = c.entry(e)
	}
	return out
}

// remapRecs copies rs, pointing each record at the fork's ROB.
func (c *Core) remapRecs(rs []waitRec) []waitRec {
	out := make([]waitRec, len(rs), cap(rs))
	for i, r := range rs {
		r.e = c.entry(r.e)
		out[i] = r
	}
	return out
}

// cloneCap copies s with its capacity, so the copy's appends allocate no
// sooner than the original's.
func cloneCap[T any](s []T) []T {
	return append(make([]T, 0, cap(s)), s...)
}
