package bpu

// TAGE is a TAgged GEometric-history-length predictor (Seznec), the class
// of predictor the paper's Skylake-like baseline uses. It has a bimodal
// base table plus tagged components indexed with geometrically increasing
// history lengths. Allocation on misprediction and usefulness-counter
// management follow the published design closely enough to reproduce the
// behaviours the paper depends on: high accuracy on correlated branches,
// and table thrashing when the global history becomes unstable under
// dynamic predication (Sec. V-C).
type TAGE struct {
	baseBits uint
	base     []int8 // 2-bit counters

	nTables   int
	tblBits   uint
	histMasks [maxTables]uint64 // each table's history mask (its length's low bits)
	entries   [][]tageEntry

	hist       uint64
	useAltOnNA int8 // simplified USE_ALT_ON_NA counter

	tick int    // usefulness reset ticker
	rng  uint64 // xorshift state for allocation randomization
}

type tageEntry struct {
	tag uint16
	ctr int8 // -4..3 signed saturating
	u   int8 // 0..3 usefulness
}

// TAGEConfig parameterizes NewTAGE.
type TAGEConfig struct {
	BaseBits  uint   // log2 entries in base bimodal table
	TableBits uint   // log2 entries per tagged table
	HistLens  []uint // history length per tagged table, ascending, ≤64
}

// DefaultTAGEConfig returns the configuration used by the Skylake-like
// baseline: 8K-entry base, five 1K-entry tagged tables with history
// lengths 4..64.
func DefaultTAGEConfig() TAGEConfig {
	return TAGEConfig{
		BaseBits:  13,
		TableBits: 9,
		HistLens:  []uint{4, 8, 16, 32, 64},
	}
}

// NewTAGE returns a TAGE predictor with the given configuration.
func NewTAGE(cfg TAGEConfig) *TAGE {
	if len(cfg.HistLens) == 0 || len(cfg.HistLens) > maxTables {
		panic("bpu: TAGE needs 1..8 tagged tables")
	}
	t := &TAGE{
		baseBits: cfg.BaseBits,
		base:     make([]int8, 1<<cfg.BaseBits),
		nTables:  len(cfg.HistLens),
		tblBits:  cfg.TableBits,
		rng:      0x853C49E6748FEA9B,
	}
	for i, hl := range cfg.HistLens {
		if hl > 64 {
			hl = 64
		}
		t.histMasks[i] = histMask(hl)
		t.entries = append(t.entries, make([]tageEntry, 1<<cfg.TableBits))
	}
	return t
}

// Name implements Predictor.
func (t *TAGE) Name() string { return "tage" }

func histMask(bits uint) uint64 {
	if bits >= 64 {
		return ^uint64(0)
	}
	return (1 << bits) - 1
}

// tagPCMul is the tag hash's pc multiplier.
const tagPCMul = 0xA24BAED4963EE407

// tagHash is a table's 11-bit tag for the pc whose product pc*tagPCMul is
// pcProd, under the masked history h.
func tagHash(pcProd, h uint64, table int) uint16 {
	x := pcProd ^ h*0x9FB21C651E98DF25 ^ uint64(table)*0x8FB3
	x ^= x >> 31
	return uint16(x) & 0x7FF
}

func (t *TAGE) nextRand() uint64 {
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 7
	t.rng ^= t.rng << 17
	return t.rng
}

// Predict implements Predictor.
func (t *TAGE) Predict(pc uint64, _ bool) (p Prediction) {
	t.lookup(pc, &p)
	return p
}

// lookup overwrites p with the prediction for the branch at pc: the
// table indices and tags under the current history, the provider and
// alternate components, the direction and its confidence. Predict and the
// warm path share it, so TAGE's lookup exists once. pc's two hash
// products are the same for every table, so they are taken once.
func (t *TAGE) lookup(pc uint64, p *Prediction) {
	pcIdx, pcTag := pc*mixPCMul, pc*tagPCMul
	*p = Prediction{Hist: t.hist, provider: -1, baseIdx: mixProd(pcIdx, 0, t.baseBits)}
	baseTaken := t.base[p.baseIdx] >= 2

	provider, alt := -1, -1
	for i := 0; i < t.nTables; i++ {
		h := t.hist & t.histMasks[i]
		p.indices[i] = mixProd(pcIdx, h, t.tblBits)
		p.tags[i] = tagHash(pcTag, h, i)
		if t.entries[i][p.indices[i]].tag == p.tags[i] {
			alt = provider
			provider = i
		}
	}
	// provider currently holds the *last* (longest-history) match because
	// tables are scanned in ascending history order.
	p.provider = provider

	altTaken := baseTaken
	if alt >= 0 {
		altTaken = t.entries[alt][p.indices[alt]].ctr >= 0
	}
	p.altTaken = altTaken

	if provider >= 0 {
		e := &t.entries[provider][p.indices[provider]]
		providerTaken := e.ctr >= 0
		weak := e.ctr == 0 || e.ctr == -1
		p.newAlloc = weak && e.u == 0
		if p.newAlloc && t.useAltOnNA >= 0 {
			p.Taken = altTaken
		} else {
			p.Taken = providerTaken
		}
		p.Conf = confFromCtr(e.ctr)
	} else {
		p.Taken = baseTaken
		p.Conf = confFrom2bit(t.base[p.baseIdx])
	}
}

// confFromCtr maps a signed 3-bit counter to 0..3 confidence.
func confFromCtr(c int8) int {
	if c < 0 {
		c = -c - 1
	}
	return int(c) // 0 (weak) .. 3 (strong)
}

// Update implements Predictor. It must be called exactly once per
// prediction, with the Prediction returned at fetch.
func (t *TAGE) Update(_ uint64, pred Prediction, taken bool) { t.train(&pred, taken) }

// warm is Warm for a TAGE: one lookup into a Prediction on the stack,
// the outcome shifted into the history, and training from it in place.
func (t *TAGE) warm(pc uint64, taken bool) {
	var pred Prediction
	t.lookup(pc, &pred)
	t.hist = historyPush(t.hist, pc, taken)
	t.train(&pred, taken)
}

// train trains the tables with the resolved outcome of pred, the branch's
// lookup. Update and the warm path share it, so TAGE's training exists
// once.
func (t *TAGE) train(pred *Prediction, taken bool) {
	correct := pred.Taken == taken

	// USE_ALT_ON_NA bookkeeping for newly-allocated weak providers.
	if pred.provider >= 0 && pred.newAlloc {
		e := &t.entries[pred.provider][pred.indices[pred.provider]]
		providerTaken := e.ctr >= 0
		if providerTaken != pred.altTaken {
			if providerTaken == taken && t.useAltOnNA > -8 {
				t.useAltOnNA--
			} else if pred.altTaken == taken && t.useAltOnNA < 7 {
				t.useAltOnNA++
			}
		}
	}

	if pred.provider >= 0 {
		e := &t.entries[pred.provider][pred.indices[pred.provider]]
		providerTaken := e.ctr >= 0
		// Usefulness: provider was useful if it disagreed with alt and
		// was right.
		if providerTaken != pred.altTaken {
			if providerTaken == taken {
				if e.u < 3 {
					e.u++
				}
			} else if e.u > 0 {
				e.u--
			}
		}
		e.ctr = sat3(e.ctr, taken)
	} else {
		t.base[pred.baseIdx] = sat2(t.base[pred.baseIdx], taken)
	}

	// Allocate a longer-history entry on misprediction. This is the
	// mechanism that thrashes when branch history is unstable: every
	// mispredict burns an entry in a longer table.
	if !correct && pred.provider < t.nTables-1 {
		t.allocate(pred, taken)
	}

	// Graceful usefulness aging.
	t.tick++
	if t.tick >= 1<<18 {
		t.tick = 0
		for i := range t.entries {
			for j := range t.entries[i] {
				if t.entries[i][j].u > 0 {
					t.entries[i][j].u--
				}
			}
		}
	}
}

func (t *TAGE) allocate(pred *Prediction, taken bool) {
	start := pred.provider + 1
	// Find candidate tables with a non-useful victim. Only the first two
	// candidates are ever chosen from, so track them without a slice.
	c0, c1, nCand := -1, -1, 0
	for i := start; i < t.nTables; i++ {
		if t.entries[i][pred.indices[i]].u == 0 {
			switch nCand {
			case 0:
				c0 = i
			case 1:
				c1 = i
			}
			nCand++
		}
	}
	if nCand == 0 {
		// Decay usefulness so future allocations succeed.
		for i := start; i < t.nTables; i++ {
			e := &t.entries[i][pred.indices[i]]
			if e.u > 0 {
				e.u--
			}
		}
		return
	}
	// Prefer shorter history with 2/3 probability, per Seznec.
	pick := c0
	if nCand > 1 && t.nextRand()%3 == 0 {
		pick = c1
	}
	e := &t.entries[pick][pred.indices[pick]]
	e.tag = pred.tags[pick]
	e.u = 0
	if taken {
		e.ctr = 0
	} else {
		e.ctr = -1
	}
}

// sat3 advances a signed 3-bit saturating counter (-4..3).
func sat3(c int8, taken bool) int8 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > -4 {
		return c - 1
	}
	return c
}

// History implements Predictor.
func (t *TAGE) History() uint64 { return t.hist }

// SetHistory implements Predictor.
func (t *TAGE) SetHistory(h uint64) { t.hist = h }

// PushHistory implements Predictor.
func (t *TAGE) PushHistory(pc uint64, taken bool) {
	t.hist = historyPush(t.hist, pc, taken)
}
