package bpu

import "testing"

// This file covers the direction TestCloneIndependence does not — mutating
// the CLONE must leave the ORIGINAL untouched — plus the table-aliasing
// edge cases the index hashing creates: distinct PCs sharing a bimodal
// counter, histories equal under the gshare mask, and TAGE tagged-table
// tag collisions.

// divergeStream trains p with a stream disjoint from trainStream's.
func divergeStream(p Predictor, n int) {
	x := uint64(0xBEEFCAFEF00D)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		Warm(p, (x>>9)&0x3FF, x&1 == 0)
	}
}

// TestCloneMutationDoesNotPerturbOriginal trains a predictor, clones it,
// and drives the CLONE far away: the original must still behave exactly
// like an independently-trained twin that never saw the clone's stream.
func TestCloneMutationDoesNotPerturbOriginal(t *testing.T) {
	for name, p := range clonePredictors(t) {
		t.Run(name, func(t *testing.T) {
			trainStream(p, 4096)
			c := p.(Cloner).Clone()
			divergeStream(c, 4096)

			fresh := clonePredictors(t)[name]
			trainStream(fresh, 4096)
			got := predictions(p, 512)
			want := predictions(fresh, 512)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("probe %d: original predicts %v after clone mutation, untouched twin predicts %v",
						i, got[i], want[i])
				}
			}
		})
	}
}

// aliasedPCPair finds two distinct PCs that hash to the same index for
// idx; the hash is deterministic, so the search always succeeds at the
// same pair.
func aliasedPCPair(t *testing.T, idx func(pc uint64) uint32) (uint64, uint64) {
	t.Helper()
	const pc1 = uint64(0x40)
	want := idx(pc1)
	for pc2 := pc1 + 1; pc2 < pc1+1<<22; pc2++ {
		if idx(pc2) == want {
			return pc1, pc2
		}
	}
	t.Fatal("no index collision in 2^22 PCs — index hash changed?")
	return 0, 0
}

// train drives one (pc, outcome) through the predict/update pair without
// touching global history, so table indexing stays fixed.
func train(p Predictor, pc uint64, taken bool, n int) {
	for i := 0; i < n; i++ {
		p.Update(pc, p.Predict(pc, taken), taken)
	}
}

// TestBimodalTableAliasing: two PCs sharing a bimodal counter see each
// other's training — and a clone's aliased training stays in the clone.
func TestBimodalTableAliasing(t *testing.T) {
	const bits = 12
	b := NewBimodal(bits)
	pc1, pc2 := aliasedPCPair(t, func(pc uint64) uint32 { return mix(pc, 0, bits) })

	train(b, pc1, true, 8)
	if !b.Predict(pc2, false).Taken {
		t.Fatalf("pc %#x aliases pc %#x but did not inherit its taken counter", pc2, pc1)
	}

	c := b.Clone()
	train(c, pc2, false, 8)
	if c.Predict(pc1, true).Taken {
		t.Fatalf("clone's aliased counter did not retrain to not-taken")
	}
	if !b.Predict(pc1, true).Taken {
		t.Fatalf("training the clone through an aliased PC perturbed the original")
	}
}

// TestGShareHistoryMaskAliasing: gshare folds only histLen bits of global
// history into the index, so histories that differ above the mask alias
// to the same counter, while an in-mask difference selects another one.
func TestGShareHistoryMaskAliasing(t *testing.T) {
	const bits, histLen = 12, 8
	g := NewGShare(bits, histLen)
	const pc = 0x99

	g.SetHistory(0)
	train(g, pc, true, 8)

	g.SetHistory(1 << histLen) // differs only above the mask: same counter
	if pred := g.Predict(pc, false); !pred.Taken || pred.Conf != 1 {
		t.Fatalf("history bit %d (outside %d-bit mask) changed the index: pred=%+v", histLen, histLen, pred)
	}

	// An in-mask history that moves the index must see untrained state.
	moved := false
	for h := uint64(1); h < 1<<histLen; h++ {
		if mix(pc, h, bits) == mix(pc, 0, bits) {
			continue // rare in-mask collision; skip it
		}
		moved = true
		g.SetHistory(h)
		if g.Predict(pc, false).Taken {
			t.Fatalf("history %#x indexes a different counter but predicts trained-taken", h)
		}
		break
	}
	if !moved {
		t.Fatal("every in-mask history collides — index hash degenerate")
	}
}

// TestTAGETagAliasing: two PCs agreeing on both index and 11-bit tag in a
// tagged table are indistinguishable to TAGE — the second PC inherits the
// first's provider entry. Clones must replicate the aliasing without
// sharing the table.
func TestTAGETagAliasing(t *testing.T) {
	tg := NewTAGE(DefaultTAGEConfig())
	const table = 0
	const pc1 = 0x40
	slot := func(pc uint64) (uint32, uint16) {
		p := tg.Predict(pc, false)
		return p.indices[table], p.tags[table]
	}
	idx1, tag1 := slot(pc1)
	var pc2 uint64
	for pc := uint64(pc1 + 1); pc < pc1+1<<24; pc++ {
		if idx, tag := slot(pc); idx == idx1 && tag == tag1 {
			pc2 = pc
			break
		}
	}
	if pc2 == 0 {
		t.Skip("no index+tag collision in 2^24 PCs at zero history")
	}

	// Install a confident taken provider entry for pc1 (white-box: this is
	// what repeated mispredict-allocate-train converges to).
	tg.entries[table][idx1] = tageEntry{tag: tag1, ctr: 3, u: 1}
	if !tg.Predict(pc1, false).Taken {
		t.Fatal("installed provider entry does not provide for pc1")
	}
	if !tg.Predict(pc2, false).Taken {
		t.Fatalf("pc %#x shares index+tag with %#x but did not inherit its provider", pc2, pc1)
	}

	// Retrain the aliased entry in a clone; the original's entry must hold.
	c := tg.Clone().(*TAGE)
	train(c, pc2, false, 16)
	if c.Predict(pc1, false).Taken {
		t.Fatal("clone's aliased provider did not retrain toward not-taken")
	}
	if !tg.Predict(pc1, false).Taken {
		t.Fatal("retraining the clone through an aliased PC perturbed the original's table")
	}
}
