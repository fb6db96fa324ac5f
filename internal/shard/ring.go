// Package shard implements the consistent-hash ring that spreads the
// attestation plane across N Attestation Servers. The paper pins each
// cloud server cluster to one Attestation Server (§3.2.3); at fleet scale
// that static split rebalances badly — adding a server re-shards
// everything. The ring instead hashes the *VM id* onto a circle of virtual
// nodes, so ownership follows the VM (not its host), Join/Leave moves only
// ~K/N of the assignments, and the epoch number lets in-flight requests
// detect that they were routed under a stale membership view (cf. the
// scalable-attestation architecture of arXiv:2304.00382).
package shard

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

// DefaultVirtualNodes is the per-node vnode count when NewRing gets 0.
// 160 points per node keeps the per-node load imbalance (which shrinks as
// 1/sqrt(vnodes)) under ~10%, so the remap-bound property test can use a
// tight epsilon without flaking across seeds.
const DefaultVirtualNodes = 160

// point is one virtual node on the circle.
type point struct {
	hash uint64
	node string
}

// Ring is a seeded consistent-hash ring with virtual nodes. Placement is
// fully deterministic in (seed, membership): two rings built with the same
// seed and the same Join sequence agree on every lookup, which is how the
// controller and the Attestation Servers share a routing view without a
// coordination service. Safe for concurrent use.
type Ring struct {
	seed   int64
	vnodes int

	mu     sync.RWMutex
	epoch  uint64
	nodes  map[string]bool
	points []point // sorted by hash
}

// NewRing creates an empty ring. vnodes <= 0 selects DefaultVirtualNodes.
func NewRing(seed int64, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	return &Ring{seed: seed, vnodes: vnodes, nodes: make(map[string]bool)}
}

// hash64 derives a circle position from the ring's seed and the given
// fields. The bytes hashed are exactly cryptoutil.Hash(domain, seed,
// fields...) — the repo's domain-separated SHA-256 framing, every field
// behind an 8-byte big-endian length — so placement is the one every
// existing ring computed (TestRingPlacementGolden pins it); they are framed
// into a stack buffer because Lookup sits on every VM-addressed call and
// must not allocate. Cryptographic hashing is deliberate: vnode placement
// must look uniform even for adversarially similar node names ("shard-1"
// vs "shard-2").
func (r *Ring) hash64(domain string, fields ...string) uint64 {
	var stack [128]byte // longer inputs spill to the heap, still correct
	b := appendField(stack[:0], domain)
	b = binary.BigEndian.AppendUint64(b, 8)
	b = binary.BigEndian.AppendUint64(b, uint64(r.seed))
	for _, f := range fields {
		b = appendField(b, f)
	}
	h := sha256.Sum256(b)
	return binary.BigEndian.Uint64(h[:8])
}

func appendField(b []byte, f string) []byte {
	return append(binary.BigEndian.AppendUint64(b, uint64(len(f))), f...)
}

// Join adds a node and its virtual nodes to the ring, bumping the epoch.
// Joining a present node is a no-op (the epoch does not move). Returns the
// resulting epoch.
func (r *Ring) Join(node string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.nodes[node] {
		return r.epoch
	}
	r.nodes[node] = true
	var idx [8]byte
	for i := 0; i < r.vnodes; i++ {
		binary.BigEndian.PutUint64(idx[:], uint64(i))
		r.points = append(r.points, point{hash: r.hash64("shard-vnode", node, string(idx[:])), node: node})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	r.epoch++
	return r.epoch
}

// Leave removes a node and its virtual nodes, bumping the epoch. Removing
// an absent node is a no-op. Returns the resulting epoch.
func (r *Ring) Leave(node string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.nodes[node] {
		return r.epoch
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
	r.epoch++
	return r.epoch
}

// Lookup returns the node owning key under the current membership, and the
// epoch that view belongs to. ok is false on an empty ring.
func (r *Ring) Lookup(key string) (node string, epoch uint64, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return "", r.epoch, false
	}
	h := r.hash64("shard-key", key)
	// First vnode clockwise of the key's position, wrapping at the top.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node, r.epoch, true
}

// Owns reports whether node owns key under the current membership. An
// empty ring owns nothing.
func (r *Ring) Owns(node, key string) bool {
	owner, _, ok := r.Lookup(key)
	return ok && owner == node
}

// Epoch returns the membership epoch: it increments on every effective
// Join or Leave, so a request stamped with an older epoch was routed under
// a view that no longer holds.
func (r *Ring) Epoch() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.epoch
}

// Nodes returns the member names, sorted.
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Size returns the member count.
func (r *Ring) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}

// Clone returns an independent ring frozen at the receiver's current
// membership and epoch. Tests use a clone as a deliberately stale routing
// view: mutate the original and the clone keeps answering with the old
// placement, which is exactly what a distributed client sees mid-rebalance.
func (r *Ring) Clone() *Ring {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c := &Ring{seed: r.seed, vnodes: r.vnodes, epoch: r.epoch, nodes: make(map[string]bool, len(r.nodes))}
	for n := range r.nodes {
		c.nodes[n] = true
	}
	c.points = append([]point(nil), r.points...)
	return c
}

func (r *Ring) String() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return fmt.Sprintf("shard.Ring{nodes=%d vnodes=%d epoch=%d}", len(r.nodes), r.vnodes, r.epoch)
}
