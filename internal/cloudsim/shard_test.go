package cloudsim

import (
	"testing"
	"time"

	"cloudmonatt/internal/properties"
)

// shardTaskKeys maps every armed periodic (vid, prop) key to the shard
// holding it, failing on duplicates — one stream must live on exactly one
// shard.
func shardTaskKeys(t *testing.T, tb *Testbed) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, as := range tb.AttestServers {
		for _, k := range as.PeriodicTaskKeys() {
			if prev, dup := out[k]; dup {
				t.Fatalf("task %q double-armed on %s and %s", k, prev, as.Shard())
			}
			out[k] = as.Shard()
		}
	}
	return out
}

// TestDefaultTestbedIsOneMemberRing pins what "no Shards option" means: a
// one-member ring whose single appraiser is an ordinary shard — so the
// plane grows to two and shrinks back to one under live periodic streams,
// with exact tick accounting on every shard and every fetched report
// verifying (FetchPeriodic verifies each report it returns).
func TestDefaultTestbedIsOneMemberRing(t *testing.T) {
	tb := newTB(t, Options{Seed: 12, Servers: 4})
	if n := tb.Ring.Size(); n != 1 {
		t.Fatalf("default ring has %d members, want 1", n)
	}
	if got := tb.Attest.Shard(); got != "attestation-server" {
		t.Fatalf("default appraiser is shard %q, want attestation-server", got)
	}
	cu, err := tb.NewCustomer("alice")
	if err != nil {
		t.Fatal(err)
	}
	const vms = 8
	vids := make([]string, 0, vms)
	for i := 0; i < vms; i++ {
		res := launch(t, cu, basicLaunch())
		vids = append(vids, res.Vid)
		if err := cu.StartPeriodic(res.Vid, properties.CPUAvailability, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	drain := func(stage string) {
		t.Helper()
		tb.RunFor(6 * time.Second)
		if n := len(shardTaskKeys(t, tb)); n != vms {
			t.Fatalf("%s: %d of %d streams armed", stage, n, vms)
		}
		for _, vid := range vids {
			if vs, err := cu.FetchPeriodic(vid, properties.CPUAvailability); err != nil || len(vs) == 0 {
				t.Fatalf("%s: stream %s: %d verdicts, err=%v", stage, vid, len(vs), err)
			}
		}
	}
	drain("one shard")

	name, moved, err := tb.JoinShard()
	if err != nil {
		t.Fatal(err)
	}
	if tb.Ring.Size() != 2 || moved == 0 || moved == vms {
		t.Fatalf("join: ring size %d, moved %d of %d streams", tb.Ring.Size(), moved, vms)
	}
	drain("two shards")

	if _, err := tb.LeaveShard(name); err != nil {
		t.Fatal(err)
	}
	if tb.Ring.Size() != 1 {
		t.Fatalf("leave: ring size %d, want 1", tb.Ring.Size())
	}
	drain("one shard again")

	for _, as := range tb.AttestServers {
		reg := as.Metrics()
		ticks := reg.Counter("periodic/ticks").Value()
		resolved := reg.Counter("periodic/produced").Value() +
			reg.Counter("periodic/skipped").Value() +
			reg.Counter("periodic/failures").Value() +
			reg.Counter("periodic/stopped-discards").Value()
		if ticks != resolved {
			t.Fatalf("%s accounting: ticks=%d resolved=%d", as.Shard(), ticks, resolved)
		}
	}
}

// TestShardChurnRebalanceMovesFraction grows and shrinks the sharded
// attestation plane under live periodic load: a join moves roughly 1/N of
// the armed streams to the new shard (exactly the ones the ring reassigns),
// a leave drains the shard completely, and across both handoffs no stream
// is lost, none is double-armed, and fetches keep verifying — including
// results buffered on the old owner before the move.
func TestShardChurnRebalanceMovesFraction(t *testing.T) {
	tb := newTB(t, Options{Seed: 11, Shards: 2, Servers: 6})
	cu, err := tb.NewCustomer("alice")
	if err != nil {
		t.Fatal(err)
	}
	const vms = 12
	vids := make([]string, 0, vms)
	for i := 0; i < vms; i++ {
		res := launch(t, cu, basicLaunch())
		vids = append(vids, res.Vid)
		if err := cu.StartPeriodic(res.Vid, properties.CPUAvailability, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// Let every stream buffer at least one result on its original owner, so
	// the handoff has to carry old-shard results too.
	tb.RunFor(6 * time.Second)
	before := shardTaskKeys(t, tb)
	if len(before) != vms {
		t.Fatalf("armed %d streams, found %d", vms, len(before))
	}

	name, moved, err := tb.JoinShard()
	if err != nil {
		t.Fatal(err)
	}
	after := shardTaskKeys(t, tb)
	if len(after) != vms {
		t.Fatalf("join lost streams: %d -> %d", len(before), len(after))
	}
	wantMoved := 0
	for k, owner := range after {
		vid := k[:len(k)-len("|"+string(properties.CPUAvailability))]
		wantOwner, _, _ := tb.Ring.Lookup(vid)
		if owner != wantOwner {
			t.Fatalf("stream %q on %s, ring owns it to %s", k, owner, wantOwner)
		}
		if owner == name {
			wantMoved++
			if before[k] == name {
				t.Fatalf("stream %q already on the new shard before it joined", k)
			}
		} else if before[k] != owner {
			t.Fatalf("stream %q moved %s -> %s without changing ownership", k, before[k], owner)
		}
	}
	if moved != wantMoved {
		t.Fatalf("JoinShard moved %d tasks, ring reassigned %d", moved, wantMoved)
	}
	if moved == 0 || moved == vms {
		t.Fatalf("join moved %d of %d streams — want a proper fraction", moved, vms)
	}

	// Streams keep producing on their new owners, and fetch verifies both
	// eras of each stream (pre-handoff results, signed by the new owner).
	tb.RunFor(6 * time.Second)
	for _, vid := range vids {
		verdicts, err := cu.FetchPeriodic(vid, properties.CPUAvailability)
		if err != nil {
			t.Fatalf("fetch %s after join: %v", vid, err)
		}
		if len(verdicts) < 2 {
			t.Fatalf("stream %s stalled across join: %d verdicts", vid, len(verdicts))
		}
	}

	// Drain the shard back out: everything it owned moves to survivors.
	owned := 0
	for _, owner := range after {
		if owner == name {
			owned++
		}
	}
	left, err := tb.LeaveShard(name)
	if err != nil {
		t.Fatal(err)
	}
	if left != owned {
		t.Fatalf("LeaveShard moved %d tasks, shard owned %d", left, owned)
	}
	final := shardTaskKeys(t, tb)
	if len(final) != vms {
		t.Fatalf("leave lost streams: %d -> %d", vms, len(final))
	}
	for k, owner := range final {
		if owner == name {
			t.Fatalf("stream %q still on departed shard %s", k, name)
		}
	}
	tb.RunFor(6 * time.Second)
	for _, vid := range vids {
		if verdicts, err := cu.FetchPeriodic(vid, properties.CPUAvailability); err != nil || len(verdicts) < 1 {
			t.Fatalf("stream %s broken after leave: %d verdicts, err=%v", vid, len(verdicts), err)
		}
	}
}

// TestHandedOffResultIsDeliveredOnce: results buffered on one shard move
// with their streams on JoinShard, unsigned, and the new owner signs the
// drain that delivers them. Drained before the new shard has produced
// anything of its own, every moved stream still delivers what its old
// owner buffered, the controller and the customer verify it, every
// produced result is delivered, and none is delivered twice.
func TestHandedOffResultIsDeliveredOnce(t *testing.T) {
	tb := newTB(t, Options{Seed: 14, Servers: 4})
	cu, err := tb.NewCustomer("dave")
	if err != nil {
		t.Fatal(err)
	}
	const vms = 8
	vids := make([]string, 0, vms)
	for i := 0; i < vms; i++ {
		vids = append(vids, launch(t, cu, basicLaunch()).Vid)
	}
	for _, vid := range vids {
		if err := cu.StartPeriodic(vid, properties.CPUAvailability, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	tb.RunFor(6 * time.Second)
	old := tb.Attest.Shard()
	name, moved, err := tb.JoinShard()
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 || moved == vms {
		t.Fatalf("join moved %d of %d streams — want a proper fraction", moved, vms)
	}
	produced := func(shard string) int64 {
		return tb.shardByName[shard].Metrics().Counter("periodic/produced").Value()
	}
	if n := produced(name); n != 0 {
		t.Fatalf("the new shard produced %d results before any time passed", n)
	}
	delivered := int64(0)
	movedDelivered := 0
	for _, vid := range vids {
		vs, err := cu.FetchPeriodic(vid, properties.CPUAvailability)
		if err != nil {
			t.Fatalf("fetch %s after the join: %v", vid, err)
		}
		delivered += int64(len(vs))
		if owner, _, _ := tb.Ring.Lookup(vid); owner == name {
			if len(vs) == 0 {
				t.Fatalf("moved stream %s delivered nothing of what %s buffered", vid, old)
			}
			movedDelivered++
		}
	}
	if movedDelivered != moved {
		t.Fatalf("%d moved streams delivered, want %d", movedDelivered, moved)
	}
	if want := produced(old); delivered != want {
		t.Fatalf("delivered %d results, %s produced %d", delivered, old, want)
	}
	for _, vid := range vids {
		if vs, err := cu.FetchPeriodic(vid, properties.CPUAvailability); err != nil || len(vs) != 0 {
			t.Fatalf("second fetch of %s = (%d verdicts, %v), want nothing delivered twice", vid, len(vs), err)
		}
	}
}

// TestShardStaleRingRedirectRecovers wedges the controller on a stale ring
// view (SplitRing freezes it, then a shard joins the data plane) and
// checks the redirect protocol carries every request to the true owner:
// attestations and periodic drains keep succeeding, the misrouted shards
// refuse with typed wrong-shard errors, and the controller follows them.
func TestShardStaleRingRedirectRecovers(t *testing.T) {
	tb := newTB(t, Options{Seed: 13, Shards: 2, Servers: 4})
	cu, err := tb.NewCustomer("carol")
	if err != nil {
		t.Fatal(err)
	}
	const vms = 8
	vids := make([]string, 0, vms)
	for i := 0; i < vms; i++ {
		res := launch(t, cu, basicLaunch())
		vids = append(vids, res.Vid)
		if err := cu.StartPeriodic(res.Vid, properties.CPUAvailability, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	tb.SplitRing()
	name, moved, err := tb.JoinShard()
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatalf("join reassigned nothing to %s — test needs movement to exercise redirects", name)
	}

	// Every one-shot attestation must succeed even though the controller
	// still routes some VMs to shards that no longer own them.
	for _, vid := range vids {
		v, err := cu.Attest(vid, properties.RuntimeIntegrity)
		if err != nil {
			t.Fatalf("attest %s with stale controller ring: %v", vid, err)
		}
		if !v.Healthy {
			t.Fatalf("attest %s: unhealthy verdict %+v", vid, v)
		}
	}
	// Periodic streams moved to the new shard must still drain through the
	// stale route.
	tb.RunFor(6 * time.Second)
	for _, vid := range vids {
		if verdicts, err := cu.FetchPeriodic(vid, properties.CPUAvailability); err != nil || len(verdicts) == 0 {
			t.Fatalf("periodic drain %s with stale ring: %d verdicts, err=%v", vid, len(verdicts), err)
		}
	}

	if n := tb.Ctrl.Metrics().Counter("controller/wrong-shard-redirects").Value(); n == 0 {
		t.Fatal("controller followed no wrong-shard redirects — stale routing never happened")
	}
	rejections := int64(0)
	for _, as := range tb.AttestServers {
		rejections += as.Metrics().Counter("attestsrv/wrong-shard-rejections").Value()
	}
	if rejections == 0 {
		t.Fatal("no shard refused a misrouted request")
	}

	// Healing the controller's view ends the redirecting.
	tb.HealRing()
	healed := tb.Ctrl.Metrics().Counter("controller/wrong-shard-redirects").Value()
	for _, vid := range vids {
		if _, err := cu.Attest(vid, properties.RuntimeIntegrity); err != nil {
			t.Fatalf("attest %s after heal: %v", vid, err)
		}
	}
	if n := tb.Ctrl.Metrics().Counter("controller/wrong-shard-redirects").Value(); n != healed {
		t.Fatalf("redirects still happening after heal: %d -> %d", healed, n)
	}
}
