package controller_test

import (
	"testing"
	"time"

	"cloudmonatt/internal/cloudsim"
	"cloudmonatt/internal/obs"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/rpc"
	"cloudmonatt/internal/server"
)

// serverNames mirrors cloudsim's naming scheme for the capacity audit.
func serverNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = cloudsimServerName(i)
	}
	return out
}

func cloudsimServerName(i int) string {
	return "cloud-server-" + string(rune('1'+i))
}

func totalUsed(tb *cloudsim.Testbed, names []string) server.Capacity {
	var sum server.Capacity
	for _, n := range names {
		u := tb.Ctrl.UsedCapacity(n)
		sum.VCPUs += u.VCPUs
		sum.MemoryMB += u.MemoryMB
		sum.DiskGB += u.DiskGB
	}
	return sum
}

// TestCapacityAccountingBalanced audits that every reserve is balanced by a
// release across the launch pipeline's failure paths: a rejected launch
// (corrupt image), a platform-integrity reschedule, and a normal
// terminate. Any leak would eventually wedge the scheduler with phantom
// load.
func TestCapacityAccountingBalanced(t *testing.T) {
	names := serverNames(2)

	t.Run("terminate releases", func(t *testing.T) {
		tb, cu := newTB(t, cloudsim.Options{Seed: 81, Servers: 2})
		if got := totalUsed(tb, names); got != (server.Capacity{}) {
			t.Fatalf("capacity reserved before any launch: %+v", got)
		}
		res, err := cu.Launch(req())
		if err != nil || !res.OK {
			t.Fatalf("launch: %v %s", err, res.Reason)
		}
		if got := totalUsed(tb, names); got == (server.Capacity{}) {
			t.Fatal("active VM holds no reservation")
		}
		if err := cu.Terminate(res.Vid); err != nil {
			t.Fatal(err)
		}
		if got := totalUsed(tb, names); got != (server.Capacity{}) {
			t.Fatalf("terminate leaked capacity: %+v", got)
		}
	})

	t.Run("rejected launch releases", func(t *testing.T) {
		tb, cu := newTB(t, cloudsim.Options{Seed: 82, Servers: 2})
		tb.CorruptNextImage()
		res, err := cu.Launch(req())
		if err != nil {
			t.Fatal(err)
		}
		if res.OK {
			t.Fatal("corrupt image launched")
		}
		if got := totalUsed(tb, names); got != (server.Capacity{}) {
			t.Fatalf("rejected launch leaked capacity: %+v", got)
		}
	})

	t.Run("unreachable appraiser registration releases the candidate", func(t *testing.T) {
		// The guest spawns and its reservation is taken before the controller
		// registers appraisal references with the Attestation Server; if that
		// registration cannot round-trip, both must be unwound.
		fn := rpc.NewFaultNetwork(rpc.NewMemNetwork(), rpc.FaultConfig{Seed: 3})
		tb, _ := newTB(t, cloudsim.Options{
			Seed: 84, Servers: 2, Network: fn,
			CallTimeout: 250 * time.Millisecond,
			Retry:       rpc.RetryPolicy{MaxAttempts: 2, BaseDelay: 5 * time.Millisecond, MaxDelay: 10 * time.Millisecond},
			Breaker:     rpc.BreakerPolicy{Threshold: -1},
		})
		fn.Partition("attestation-server")
		r := req()
		r.Owner = "tester"
		// Direct call: the controller's retry budget against the partitioned
		// appraiser outlives a customer-facing rpc timeout.
		res, err := tb.Ctrl.LaunchVMTraced(obs.SpanContext{}, r)
		if err == nil && res.OK {
			t.Fatal("launch succeeded with the appraiser unreachable")
		}
		if got := totalUsed(tb, names); got != (server.Capacity{}) {
			t.Fatalf("appraiser-failure launch leaked capacity: %+v", got)
		}
	})

	t.Run("remediation terminate releases", func(t *testing.T) {
		tb, cu := newTB(t, cloudsim.Options{Seed: 85, Servers: 2})
		res, err := cu.Launch(req())
		if err != nil || !res.OK {
			t.Fatalf("launch: %v %s", err, res.Reason)
		}
		g, err := tb.GuestOf(res.Vid)
		if err != nil {
			t.Fatal(err)
		}
		g.InfectRootkit("stealth-miner")
		if v, err := cu.Attest(res.Vid, properties.RuntimeIntegrity); err != nil || v.Healthy {
			t.Fatalf("rootkit attest: %v %v", v, err)
		}
		// The auto-response terminated the VM; its reservation must be gone.
		if st, _ := tb.Ctrl.VMState(res.Vid); st != "terminated" {
			t.Fatalf("state %q after response", st)
		}
		if got := totalUsed(tb, names); got != (server.Capacity{}) {
			t.Fatalf("remediation terminate leaked capacity: %+v", got)
		}
	})

	t.Run("platform reschedule releases the failed candidate", func(t *testing.T) {
		tamper := map[string]bool{cloudsimServerName(0): true}
		tb, cu := newTB(t, cloudsim.Options{Seed: 83, Servers: 2, TamperPlatform: tamper})
		res, err := cu.Launch(req())
		if err != nil || !res.OK {
			t.Fatalf("launch: %v %s", err, res.Reason)
		}
		if res.Server == cloudsimServerName(0) {
			t.Fatalf("VM placed on tampered server %s", res.Server)
		}
		if got := tb.Ctrl.UsedCapacity(cloudsimServerName(0)); got != (server.Capacity{}) {
			t.Fatalf("tampered candidate still holds a reservation: %+v", got)
		}
		if got := tb.Ctrl.UsedCapacity(res.Server); got == (server.Capacity{}) {
			t.Fatal("placed VM holds no reservation")
		}
		if err := cu.Terminate(res.Vid); err != nil {
			t.Fatal(err)
		}
		if got := totalUsed(tb, names); got != (server.Capacity{}) {
			t.Fatalf("capacity leaked after reschedule + terminate: %+v", got)
		}
	})
}
