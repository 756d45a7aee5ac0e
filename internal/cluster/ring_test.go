package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

func hexKey(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("key-%d", i)))
	return hex.EncodeToString(sum[:])
}

// TestRingDeterministicOwner: ownership is a pure function of the
// member set — two independently built rings agree on every key, and
// node insertion order is irrelevant.
func TestRingDeterministicOwner(t *testing.T) {
	a := NewRing("w1", "w2", "w3")
	b := NewRing("w3", "w1", "w2")
	for i := 0; i < 256; i++ {
		k := hexKey(i)
		oa, ok := a.Owner(k)
		if !ok {
			t.Fatal("ring with members owns nothing")
		}
		ob, _ := b.Owner(k)
		if oa != ob {
			t.Fatalf("key %s: owner %s vs %s across build orders", k, oa, ob)
		}
	}
}

// TestRingBalance: with 64 vnodes each, three shards split 3000 keys
// within a loose band — no shard starves or hogs.
func TestRingBalance(t *testing.T) {
	r := NewRing("w1", "w2", "w3")
	counts := make(map[string]int)
	const keys = 3000
	for i := 0; i < keys; i++ {
		o, _ := r.Owner(hexKey(i))
		counts[o]++
	}
	for node, n := range counts {
		frac := float64(n) / keys
		if frac < 0.15 || frac > 0.55 {
			t.Errorf("node %s owns %.0f%% of keys (counts %v)", node, frac*100, counts)
		}
	}
	if len(counts) != 3 {
		t.Fatalf("only %d of 3 nodes own keys: %v", len(counts), counts)
	}
}

// TestRingStability: removing one node moves only that node's keys —
// every key owned by a surviving node keeps its owner. This is the
// property the peer result cache depends on.
func TestRingStability(t *testing.T) {
	full := NewRing("w1", "w2", "w3")
	reduced := NewRing("w1", "w3")
	moved := 0
	for i := 0; i < 1000; i++ {
		k := hexKey(i)
		before, _ := full.Owner(k)
		after, _ := reduced.Owner(k)
		if before != "w2" {
			if after != before {
				t.Fatalf("key %s moved %s→%s though its owner survived", k, before, after)
			}
			continue
		}
		moved++
		if after == "w2" {
			t.Fatalf("key %s still owned by removed node", k)
		}
	}
	if moved == 0 {
		t.Fatal("w2 owned nothing; balance test should have caught this")
	}
}

// TestRingOwners: the replica chain starts at the owner, never repeats
// a node, clamps to the member count, and is deterministic — the
// properties RF=2 result replication and successor peer-fetch rest on.
func TestRingOwners(t *testing.T) {
	r := NewRing("w1", "w2", "w3")
	for i := 0; i < 512; i++ {
		k := hexKey(i)
		owner, _ := r.Owner(k)
		chain := r.Owners(k, 2)
		if len(chain) != 2 {
			t.Fatalf("key %s: Owners(2) = %v", k, chain)
		}
		if chain[0] != owner {
			t.Fatalf("key %s: chain starts at %s, Owner says %s", k, chain[0], owner)
		}
		if chain[1] == chain[0] {
			t.Fatalf("key %s: replica on the same node %v", k, chain)
		}
		if again := r.Owners(k, 2); again[0] != chain[0] || again[1] != chain[1] {
			t.Fatalf("key %s: Owners not deterministic: %v vs %v", k, chain, again)
		}
	}
	// Successors spread: w1's keys must not all replicate to one node.
	succ := make(map[string]int)
	for i := 0; i < 1000; i++ {
		chain := r.Owners(hexKey(i), 2)
		if chain[0] == "w1" {
			succ[chain[1]]++
		}
	}
	if len(succ) < 2 {
		t.Errorf("all of w1's replicas landed on one node: %v", succ)
	}
	// Clamps: more replicas than members returns them all, once each;
	// n<=0 and the empty ring return nothing.
	all := r.Owners(hexKey(1), 5)
	if len(all) != 3 {
		t.Fatalf("Owners(5) on 3 nodes = %v", all)
	}
	seen := map[string]bool{}
	for _, n := range all {
		if seen[n] {
			t.Fatalf("Owners(5) repeats %s: %v", n, all)
		}
		seen[n] = true
	}
	if got := r.Owners(hexKey(1), 0); got != nil {
		t.Errorf("Owners(0) = %v, want nil", got)
	}
	if got := NewRing().Owners(hexKey(1), 2); got != nil {
		t.Errorf("empty ring Owners = %v, want nil", got)
	}
}

// TestRingEdges: empty ring owns nothing; single node owns everything;
// duplicates and empty names collapse; non-hex keys still resolve.
func TestRingEdges(t *testing.T) {
	if _, ok := NewRing().Owner(hexKey(1)); ok {
		t.Fatal("empty ring claimed an owner")
	}
	solo := NewRing("only")
	for i := 0; i < 32; i++ {
		if o, ok := solo.Owner(hexKey(i)); !ok || o != "only" {
			t.Fatalf("single-node ring returned (%q, %v)", o, ok)
		}
	}
	r := NewRing("w1", "w1", "", "w2")
	if r.Len() != 2 {
		t.Fatalf("duplicates/empties not collapsed: %v", r.Nodes())
	}
	if o, ok := r.Owner("not-a-hex-key"); !ok || o == "" {
		t.Fatal("non-hex key did not resolve")
	}
}
