// Package cluster scales acbd from one daemon to a fleet: a coordinator
// keeps a journaled job queue and pulls work through it onto worker
// shards with per-worker lanes, detects worker death by heartbeat and
// requeues the orphaned jobs, replicates every result to the key's
// consistent-hash owners, serves batched submission and
// streaming-results APIs for bulk sweep clients, and rolls every node's
// /v1/metrics into one exposition with a node label per series. Workers
// are plain acbd daemons (internal/service); the only cluster-aware
// piece on a worker is the result store's peer tier, which fetches
// missing results by key from the owning shard.
//
// Topology and failure semantics are documented in docs/CLUSTER.md.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"hash/fnv"
	"sort"
	"strconv"
)

// Ring is an immutable consistent-hash ring: node names are placed on a
// uint64 circle at vnodes points each, and a key is owned by the first
// node clockwise of its hash. Immutability keeps reads lock-free. The
// coordinator and every worker build the same ring over the static
// fleet and never change it (a dead owner just means a peer miss, not a
// wrong answer), so replicas land where peer fetches look.
//
// Consistent hashing is what makes the peer result cache work: adding or
// removing one shard moves only ~1/N of the key space, so almost every
// already-cached key keeps resolving to the shard that has it.
type Ring struct {
	points []ringPoint // sorted by hash
	nodes  []string    // sorted member names
}

type ringPoint struct {
	hash uint64
	node string
}

// DefaultVNodes is the virtual-node count per member: enough that a
// 2–16 node fleet shards within a few percent of evenly.
const DefaultVNodes = 64

// NewRing builds a ring over the given node names with vnodes virtual
// nodes each (0 = DefaultVNodes). Duplicate names collapse; an empty
// node set yields a ring that owns nothing.
func NewRing(vnodes int, nodes ...string) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := make(map[string]bool, len(nodes))
	r := &Ring{}
	for _, n := range nodes {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		r.nodes = append(r.nodes, n)
		for v := 0; v < vnodes; v++ {
			// SHA-256, not FNV: short, similar vnode names ("w1#0", "w2#0",
			// ...) cluster badly under FNV-1a and can starve a shard.
			sum := sha256.Sum256([]byte(n + "#" + strconv.Itoa(v)))
			r.points = append(r.points, ringPoint{hash: binary.BigEndian.Uint64(sum[:8]), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	sort.Strings(r.nodes)
	return r
}

// Owner returns the node owning key, and false when the ring is empty.
// Result keys are already hex SHA-256, so their leading 16 hex digits
// are a uniform uint64 and need no re-hashing; anything else (not
// produced by Request.Key) is hashed with FNV-1a first.
func (r *Ring) Owner(key string) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	h := keyHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: first point clockwise
	}
	return r.points[i].node, true
}

// Owners returns the first n distinct nodes clockwise of key's point:
// Owners(key, 1) is the owner, and Owners(key, 2)[1] — when the ring
// has two members — is the successor shard that carries the key's
// replica under the cluster's RF=2 result replication. Fewer than n
// members returns them all.
func (r *Ring) Owners(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := keyHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for j := 0; j < len(r.points) && len(out) < n; j++ {
		p := r.points[(i+j)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}

// Nodes returns the member names, sorted.
func (r *Ring) Nodes() []string { return r.nodes }

// Len returns the member count.
func (r *Ring) Len() int { return len(r.nodes) }

func keyHash(key string) uint64 {
	if len(key) >= 16 {
		if v, err := strconv.ParseUint(key[:16], 16, 64); err == nil {
			return v
		}
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}
