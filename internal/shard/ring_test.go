package shard

import (
	"fmt"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("vm-%04d", i)
	}
	return out
}

func assignments(r *Ring, ks []string) map[string]string {
	out := make(map[string]string, len(ks))
	for _, k := range ks {
		n, _, ok := r.Lookup(k)
		if !ok {
			continue
		}
		out[k] = n
	}
	return out
}

// TestRingRemapBound is the consistency property that justifies the ring:
// adding or removing one node out of N moves only ~K/N keys, not a full
// reshuffle. With 160 vnodes the expected imbalance is small, so a 1.5x
// slack over the ideal K/N bound is generous enough to hold across seeds.
func TestRingRemapBound(t *testing.T) {
	const K = 4000
	ks := keys(K)
	for _, seed := range []int64{1, 7, 42, 1234} {
		for _, n := range []int{2, 4, 8} {
			r := NewRing(seed, 0)
			for i := 0; i < n; i++ {
				r.Join(fmt.Sprintf("shard-%d", i))
			}
			before := assignments(r, ks)

			// Join: keys may move only onto the new node.
			r.Join("shard-new")
			after := assignments(r, ks)
			moved := 0
			for k, owner := range after {
				if owner != before[k] {
					moved++
					if owner != "shard-new" {
						t.Fatalf("seed=%d n=%d: key %s moved %s->%s on join of shard-new", seed, n, k, before[k], owner)
					}
				}
			}
			bound := int(float64(K) / float64(n+1) * 1.5)
			if moved > bound {
				t.Errorf("seed=%d n=%d join: moved %d keys, bound %d", seed, n, moved, bound)
			}
			if moved == 0 {
				t.Errorf("seed=%d n=%d join: no keys moved to the new node", seed, n)
			}

			// Leave: exactly the departed node's keys move, nothing else.
			r.Leave("shard-new")
			restored := assignments(r, ks)
			for k, owner := range restored {
				if owner != before[k] {
					t.Fatalf("seed=%d n=%d: key %s at %s after leave, was %s before join", seed, n, k, owner, before[k])
				}
			}
		}
	}
}

// TestRingDeterministic: same seed + same membership (even via a different
// join order) => identical lookups. Different seed => a different placement.
func TestRingDeterministic(t *testing.T) {
	ks := keys(512)
	a := NewRing(99, 0)
	b := NewRing(99, 0)
	for _, n := range []string{"s0", "s1", "s2", "s3"} {
		a.Join(n)
	}
	for _, n := range []string{"s3", "s1", "s0", "s2"} {
		b.Join(n)
	}
	for _, k := range ks {
		an, _, _ := a.Lookup(k)
		bn, _, _ := b.Lookup(k)
		if an != bn {
			t.Fatalf("key %s: ring a says %s, ring b says %s", k, an, bn)
		}
	}
	c := NewRing(100, 0)
	for _, n := range []string{"s0", "s1", "s2", "s3"} {
		c.Join(n)
	}
	diff := 0
	for _, k := range ks {
		an, _, _ := a.Lookup(k)
		cn, _, _ := c.Lookup(k)
		if an != cn {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical placement for all 512 keys")
	}
}

func TestRingBalance(t *testing.T) {
	const K = 8000
	r := NewRing(5, 0)
	for i := 0; i < 4; i++ {
		r.Join(fmt.Sprintf("s%d", i))
	}
	load := make(map[string]int)
	for _, k := range keys(K) {
		n, _, _ := r.Lookup(k)
		load[n]++
	}
	ideal := K / 4
	for n, c := range load {
		if c < ideal/2 || c > ideal*2 {
			t.Errorf("node %s owns %d keys, ideal %d (load badly skewed)", n, c, ideal)
		}
	}
}

func TestRingEpochAndMembership(t *testing.T) {
	r := NewRing(1, 8)
	if _, _, ok := r.Lookup("vm-1"); ok {
		t.Fatal("empty ring claimed to own a key")
	}
	if e := r.Join("a"); e != 1 {
		t.Fatalf("epoch after first join = %d, want 1", e)
	}
	if e := r.Join("a"); e != 1 {
		t.Fatalf("duplicate join bumped epoch to %d", e)
	}
	if e := r.Join("b"); e != 2 {
		t.Fatalf("epoch after second join = %d, want 2", e)
	}
	if e := r.Leave("missing"); e != 2 {
		t.Fatalf("leave of absent node bumped epoch to %d", e)
	}
	if e := r.Leave("a"); e != 3 {
		t.Fatalf("epoch after leave = %d, want 3", e)
	}
	if got := r.Nodes(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("Nodes() = %v, want [b]", got)
	}
	n, e, ok := r.Lookup("vm-1")
	if !ok || n != "b" || e != 3 {
		t.Fatalf("Lookup on single-node ring = (%s, %d, %v)", n, e, ok)
	}
	if !r.Owns("b", "vm-1") || r.Owns("a", "vm-1") {
		t.Fatal("Owns disagrees with Lookup")
	}
}

// TestRingCloneIsFrozen: a clone keeps answering with the membership it was
// taken at — the stale-view behavior the misroute protocol is tested with.
func TestRingCloneIsFrozen(t *testing.T) {
	r := NewRing(3, 0)
	r.Join("s0")
	r.Join("s1")
	frozen := r.Clone()
	if frozen.Epoch() != r.Epoch() {
		t.Fatal("clone epoch differs at clone time")
	}
	r.Join("s2")
	if frozen.Epoch() == r.Epoch() {
		t.Fatal("mutating the original moved the clone's epoch")
	}
	for _, n := range frozen.Nodes() {
		if n == "s2" {
			t.Fatal("clone saw a node joined after the clone")
		}
	}
	for _, k := range keys(256) {
		n, _, _ := frozen.Lookup(k)
		if n == "s2" {
			t.Fatalf("frozen clone routed %s to the post-clone node", k)
		}
	}
}

func TestWrongShardErrorRoundTrip(t *testing.T) {
	e := &WrongShardError{Key: "vm-0017", Owner: "shard-3", Epoch: 42}
	msg := fmt.Sprintf("rpc: remote: appraise refused: %v", e)
	got, ok := ParseWrongShard(msg)
	if !ok {
		t.Fatalf("ParseWrongShard failed on %q", msg)
	}
	if *got != *e {
		t.Fatalf("round trip: got %+v want %+v", got, e)
	}
	if _, ok := ParseWrongShard("rpc: remote: unknown vm"); ok {
		t.Fatal("ParseWrongShard matched an unrelated error")
	}
	if _, ok := ParseWrongShard("wrong-shard key=x"); ok {
		t.Fatal("ParseWrongShard accepted a truncated message")
	}
}

// TestRingPlacementGolden pins placement byte for byte: the owners below
// were generated before hash64 stopped calling cryptoutil.Hash, so a ring
// built today agrees with every ring (and every persisted handoff decision)
// built before. Digit i of a row is the index into members of the owner of
// vm-%04d (i+1).
func TestRingPlacementGolden(t *testing.T) {
	members := []string{"attestation-server", "attestation-server-1", "attestation-server-2", "attestation-server-3"}
	golden := map[int64]string{
		1:  "2012222233322213130203300101123322123020112031332222311203220200",
		14: "1103131121211320231100333121011320330302010000120011123111023133",
	}
	for seed, want := range golden {
		r := NewRing(seed, 0)
		for _, m := range members {
			r.Join(m)
		}
		for i := range want {
			key := fmt.Sprintf("vm-%04d", i+1)
			got, _, _ := r.Lookup(key)
			if exp := members[want[i]-'0']; got != exp {
				t.Errorf("seed %d: %s owned by %s, want %s", seed, key, got, exp)
			}
			if !r.Owns(got, key) {
				t.Errorf("seed %d: Owns(%s, %s) = false", seed, got, key)
			}
		}
	}
}

// TestRingLookupAllocFree keeps the routing lookup off the heap: it runs
// twice per attestation (controller route, shard ownership check).
func TestRingLookupAllocFree(t *testing.T) {
	r := NewRing(1, 0)
	r.Join("attestation-server")
	r.Join("attestation-server-1")
	if n := testing.AllocsPerRun(200, func() { r.Lookup("vm-0001") }); n != 0 {
		t.Errorf("Lookup allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { r.Owns("attestation-server", "vm-0001") }); n != 0 {
		t.Errorf("Owns allocates %v times per call, want 0", n)
	}
}
