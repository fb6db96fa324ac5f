package cloudsim

import (
	"testing"
	"time"

	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/rpc"
)

// redialShard makes the controller's next appraisal dial afresh, and so
// draw a new fault plan: re-registering a shard drops the cached connection.
func redialShard(tb *Testbed) {
	tb.Ctrl.RegisterAttestShard(tb.attIDs[0].Name, tb.attestAddrs[0], tb.attIDs[0].Public())
}

// TestFullFlowUnderChaos is the acceptance test for the fault-tolerant
// protocol stack: with every link injecting >= 10% connection drops plus
// random per-operation delays, the complete customer lifecycle — launch,
// one-time attestation, periodic start/fetch/stop, terminate — must still
// succeed end to end.
func TestFullFlowUnderChaos(t *testing.T) {
	fn := rpc.NewFaultNetwork(rpc.NewMemNetwork(), rpc.FaultConfig{
		Seed:      5,
		DropRate:  0.15, // >= 10% of dials refused
		ResetRate: 0.25, // connections torn mid-stream force redials
		DelayRate: 0.3,
		MaxDelay:  2 * time.Millisecond,
	})
	tb := newTB(t, Options{
		Seed:    80,
		Network: fn,
		RPC:     rpc.Policy{CallTimeout: 2 * time.Second, MaxAttempts: 8, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond, BreakerThreshold: -1},
	})
	// The customer's eager connect probe is deliberately single-attempt (it
	// must fail closed under an active MITM), so joining under chaos is the
	// customer's own retry loop.
	var cu *Customer
	var err error
	for i := 0; i < 10; i++ {
		if cu, err = tb.NewCustomer("alice"); err == nil {
			break
		}
	}
	if err != nil {
		t.Fatalf("customer connect under chaos (10 attempts): %v", err)
	}

	res := launch(t, cu, basicLaunch())
	tb.RunFor(time.Second)

	// One-time attestation.
	rep, err := cu.AttestReport(res.Vid, properties.RuntimeIntegrity)
	if err != nil {
		t.Fatalf("one-time attestation under chaos: %v", err)
	}
	if !rep.Verdict.Healthy {
		t.Fatalf("attestation under chaos unhealthy: %v", rep.Verdict)
	}
	if rep.Stale {
		t.Fatalf("attestation under chaos degraded to stale — infrastructure gave up: %+v", rep)
	}

	// Full periodic cycle.
	if err := cu.StartPeriodic(res.Vid, properties.CPUAvailability, 2*time.Second); err != nil {
		t.Fatalf("periodic start under chaos: %v", err)
	}
	tb.RunFor(7 * time.Second)
	fetched, err := cu.FetchPeriodic(res.Vid, properties.CPUAvailability)
	if err != nil {
		t.Fatalf("periodic fetch under chaos: %v", err)
	}
	if len(fetched) == 0 {
		t.Fatal("no periodic verdicts accumulated under chaos")
	}
	tb.RunFor(3 * time.Second)
	if _, err := cu.StopPeriodic(res.Vid, properties.CPUAvailability); err != nil {
		t.Fatalf("periodic stop under chaos: %v", err)
	}

	if err := cu.Terminate(res.Vid); err != nil {
		t.Fatalf("terminate under chaos: %v", err)
	}
	if st, err := tb.Ctrl.VMState(res.Vid); err != nil || st != "terminated" {
		t.Fatalf("state %q err %v after terminate", st, err)
	}

	// The chaos must actually have bitten, or this test proves nothing. Each
	// connection's faults come from its own stream of (seed, address, dial
	// ordinal), so whether a dial of this lifecycle is refused is fixed by
	// the seeds above, not by goroutine interleaving.
	st := fn.Stats()
	if st.Drops == 0 {
		t.Fatalf("no connection drops injected (stats %+v) — chaos inert", st)
	}
	if st.Delays == 0 {
		t.Fatalf("no delays injected (stats %+v) — chaos inert", st)
	}
	t.Logf("survived chaos: %+v", st)
}
