// Package bpu implements the branch direction predictors used by the
// simulated core: a TAGE predictor similar in spirit to the baseline the
// paper assumes (Seznec [2][3]), plus bimodal, gshare and perceptron
// predictors for comparison, an oracle predictor for perfect-speculation
// studies (Fig. 1), and a JRS-style confidence estimator used by the DMP
// baseline.
//
// Global history is owned by the predictor and updated speculatively at
// fetch via PushHistory; the core snapshots and restores it around
// pipeline flushes, exactly as the paper describes for speculative history
// update (Sec. V-C, [30]).
package bpu

import (
	"fmt"
	"strings"
)

// Names lists the predictors New builds, the set acbsim's -predictor and
// the sens-predictor experiment choose from.
func Names() []string { return []string{"tage", "gshare", "bimodal", "perceptron", "oracle"} }

// New returns a fresh predictor by name, at the sizes every comparison in
// this repository uses: TAGE in its default configuration, 16K-entry
// bimodal and gshare (16 history bits) tables, a 1K-entry perceptron over
// 32 history bits, and the oracle.
func New(name string) (Predictor, error) {
	switch name {
	case "tage":
		return NewTAGE(DefaultTAGEConfig()), nil
	case "gshare":
		return NewGShare(14, 16), nil
	case "bimodal":
		return NewBimodal(14), nil
	case "perceptron":
		return NewPerceptron(10, 32), nil
	case "oracle":
		return NewOracle(), nil
	}
	return nil, fmt.Errorf("bpu: unknown predictor %q (want %s)", name, strings.Join(Names(), ", "))
}

// Prediction carries a direction prediction together with the metadata the
// predictor needs to train itself later. The core stores the Prediction in
// the instruction's ROB entry and hands it back at retirement.
type Prediction struct {
	Taken bool
	// Hist is the global history at prediction time: History() just
	// before the Predict call that returned this Prediction. The core
	// keeps it as the branch's fetch-time history, for flush repair and
	// the predication scheme (TestPredictionHistIsFetchHistory).
	Hist uint64
	// Provider/alt metadata (TAGE) or raw output (perceptron).
	provider int // -1 = base table
	altTaken bool
	newAlloc bool
	sum      int32
	indices  [maxTables]uint32
	tags     [maxTables]uint16
	baseIdx  uint32
	// Conf is a small saturation-based confidence proxy: higher is more
	// confident. TAGE uses the provider counter distance from the
	// weakly-taken threshold.
	Conf int
}

// Predictor is a branch direction predictor with speculatively-updated
// global history.
//
// oracleTaken passes the architecturally-correct outcome, which the fetch
// engine knows because the functional front end runs ahead of timing; only
// the Oracle predictor consults it.
type Predictor interface {
	// Predict returns the predicted direction for the conditional branch
	// at pc. It does not change the global history, and the returned
	// Prediction's Hist is that history.
	Predict(pc uint64, oracleTaken bool) Prediction
	// Update trains the predictor with the resolved outcome. pred must be
	// the value returned by the corresponding Predict call.
	Update(pc uint64, pred Prediction, taken bool)
	// History returns the current speculative global history.
	History() uint64
	// SetHistory restores the speculative global history (flush repair).
	SetHistory(h uint64)
	// PushHistory shifts the (possibly speculative) outcome of a branch
	// into the global history.
	PushHistory(pc uint64, taken bool)
	// Name identifies the predictor in reports.
	Name() string
}

const maxTables = 8

// historyPush computes the new history after shifting in one branch
// outcome. A bit of the PC is mixed in so that path information
// disambiguates same-direction sequences.
func historyPush(h uint64, pc uint64, taken bool) uint64 {
	bit := uint64(0)
	if taken {
		bit = 1
	}
	return (h << 1) | (bit ^ ((pc >> 2) & 1))
}

// mix hashes a pc with a masked history for table indexing.
func mix(pc, hist uint64, bits uint) uint32 { return mixProd(pc*mixPCMul, hist, bits) }

// mixPCMul is mix's pc multiplier.
const mixPCMul = 0x9E3779B97F4A7C15

// mixProd is mix with the pc's product, pc*mixPCMul, already taken: TAGE
// hashes one pc against every table's history.
func mixProd(pcProd, hist uint64, bits uint) uint32 {
	x := pcProd ^ hist*0xC2B2AE3D27D4EB4F
	x ^= x >> 29
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 32
	return uint32(x) & ((1 << bits) - 1)
}
