package controller_test

import (
	"testing"
	"time"

	"cloudmonatt/internal/cloudsim"
	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/ledger"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/rpc"
	"cloudmonatt/internal/wire"
)

// TestAttestDegradesToStaleReportOnPartition covers the controller's
// graceful degradation: with the attestation server blackholed, an
// attestation request is answered from the last-known-good verdict,
// flagged stale with its age, signed as usual — and never escalated to
// remediation. The retries and the degradation are recorded in metrics and
// the evidence ledger, and a healed network yields fresh reports again.
func TestAttestDegradesToStaleReportOnPartition(t *testing.T) {
	fn := rpc.NewFaultNetwork(rpc.NewMemNetwork(), rpc.FaultConfig{Seed: 5})
	tb, cu := newTB(t, cloudsim.Options{
		Seed:    65,
		Network: fn,
		RPC:     rpc.Policy{CallTimeout: 250 * time.Millisecond, MaxAttempts: 2, BaseDelay: 5 * time.Millisecond, MaxDelay: 10 * time.Millisecond, BreakerThreshold: -1},
	})
	res, err := cu.Launch(req())
	if err != nil || !res.OK {
		t.Fatalf("launch: %v %s", err, res.Reason)
	}
	tb.RunFor(time.Second)

	// A healthy attestation populates the last-known-good cache.
	rep1, err := cu.AttestReport(res.Vid, properties.RuntimeIntegrity)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Stale || !rep1.Verdict.Healthy {
		t.Fatalf("healthy baseline report: stale=%v verdict=%v", rep1.Stale, rep1.Verdict)
	}
	tb.RunFor(3 * time.Second) // virtual time passes; the cache ages

	// Blackhole the attestation server and attest again, directly against
	// the controller (the customer-to-controller link stays healthy).
	fn.Partition("attestation-server")
	n1 := cryptoutil.MustNonce()
	rep, err := tb.Ctrl.Attest(wire.AttestRequest{Vid: res.Vid, Prop: properties.RuntimeIntegrity, N1: n1})
	if err != nil {
		t.Fatalf("attest during partition: %v (want stale degradation, not failure)", err)
	}
	if !rep.Stale {
		t.Fatal("report during partition not flagged stale")
	}
	if rep.Age <= 0 {
		t.Fatalf("stale report age %v, want > 0", rep.Age)
	}
	if err := wire.VerifyCustomerReport(rep, tb.Ctrl.PublicKey(), res.Vid, properties.RuntimeIntegrity, n1); err != nil {
		t.Fatalf("stale report does not verify: %v", err)
	}
	if !rep.Verdict.Healthy {
		t.Fatalf("last-known-good verdict was healthy, stale report says %v", rep.Verdict)
	}

	// An infrastructure failure must never look like a property failure.
	if evs := tb.Ctrl.Events(); len(evs) != 0 {
		t.Fatalf("partition escalated to remediation: %+v", evs)
	}

	// The degradation and the retries are observable.
	m := tb.Ctrl.Metrics()
	if m.Counter("controller/degraded-stale-reports").Value() == 0 {
		t.Fatal("stale-report counter not incremented")
	}
	if m.Counter("controller/rpc-retries").Value() == 0 {
		t.Fatal("retry counter not incremented")
	}
	if es, err := tb.Ledger.Query(ledger.Filter{Kind: ledger.KindDegraded}); err != nil || len(es) == 0 {
		t.Fatalf("no degraded entry in the evidence ledger (err %v)", err)
	}
	if es, err := tb.Ledger.Query(ledger.Filter{Kind: ledger.KindRPCFault}); err != nil || len(es) == 0 {
		t.Fatalf("no rpc-fault entry in the evidence ledger (err %v)", err)
	}

	// Heal: the next report is fresh again.
	fn.HealAll()
	rep2, err := cu.AttestReport(res.Vid, properties.RuntimeIntegrity)
	if err != nil {
		t.Fatalf("attest after heal: %v", err)
	}
	if rep2.Stale {
		t.Fatal("report still stale after the partition healed")
	}
}

// TestAttestWithoutCacheFailsCleanlyOnPartition: degradation requires a
// last-known-good verdict for that (vid, property); without one the
// controller reports the infrastructure failure instead of inventing a
// verdict.
func TestAttestWithoutCacheFailsCleanlyOnPartition(t *testing.T) {
	fn := rpc.NewFaultNetwork(rpc.NewMemNetwork(), rpc.FaultConfig{Seed: 6})
	tb, cu := newTB(t, cloudsim.Options{
		Seed:    66,
		Network: fn,
		RPC:     rpc.Policy{CallTimeout: 200 * time.Millisecond, MaxAttempts: 2, BaseDelay: 5 * time.Millisecond, MaxDelay: 10 * time.Millisecond, BreakerThreshold: -1},
	})
	res, err := cu.Launch(req())
	if err != nil || !res.OK {
		t.Fatalf("launch: %v %s", err, res.Reason)
	}
	// covert-channel-freedom was never attested post-launch: no cache entry.
	fn.Partition("attestation-server")
	rep, err := tb.Ctrl.Attest(wire.AttestRequest{
		Vid: res.Vid, Prop: properties.CovertChannelFreedom, N1: cryptoutil.MustNonce(),
	})
	if err == nil {
		t.Fatalf("attest with no cached verdict returned %+v, want an error", rep)
	}
	if evs := tb.Ctrl.Events(); len(evs) != 0 {
		t.Fatalf("partition escalated to remediation: %+v", evs)
	}
}
