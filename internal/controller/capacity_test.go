package controller_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"cloudmonatt/internal/cloudsim"
	"cloudmonatt/internal/controller"
	"cloudmonatt/internal/ledger"
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

// defaultCapacity mirrors cloudsim's per-server default.
var defaultCapacity = server.Capacity{VCPUs: 16, MemoryMB: 32768, DiskGB: 500}

// auditLifecycle checks that the controller's books and the hosts agree
// once an operation has settled: per server the controller's reservation
// ledger equals what the host itself accounts as used, no host runs a
// guest the controller has no live row for on that host, and every launch
// or place intent begun in the evidence ledger was ended (or, across a
// crash, replayed by a recovery).
func auditLifecycle(t *testing.T, tb *cloudsim.Testbed, capacity server.Capacity) {
	t.Helper()
	for name, srv := range tb.Servers {
		if used, host := tb.Ctrl.UsedCapacity(name), capacity.Minus(srv.Free()); used != host {
			t.Errorf("%s: controller reserves %+v, host accounts %+v", name, used, host)
		}
		// Vids are minted densely from vm-0001; no case launches ten VMs.
		for i := 1; i < 10; i++ {
			vid := fmt.Sprintf("vm-%04d", i)
			if _, err := srv.Info(vid); err != nil {
				continue
			}
			on, _ := tb.Ctrl.VMServer(vid)
			if st, err := tb.Ctrl.VMState(vid); err != nil || st == "terminated" || on != name {
				t.Errorf("%s hosts %s, which the controller has as state %q on %q (%v)", name, vid, st, on, err)
			}
		}
	}
	es, err := tb.Ledger.Query(ledger.Filter{Kind: ledger.KindIntent})
	if err != nil {
		t.Fatal(err)
	}
	open := make(map[string]string)
	for _, e := range es {
		var ir controller.IntentRecord
		if err := e.Decode(&ir); err != nil {
			t.Fatal(err)
		}
		switch {
		case ir.Op == "recover":
			open = make(map[string]string) // torn intents were replayed
		case ir.Op != "launch" && ir.Op != "place":
		case ir.Phase == "begin":
			open[ir.ID] = ir.Op + " of " + e.Vid
		default:
			delete(open, ir.ID)
		}
	}
	for id, what := range open {
		t.Errorf("intent %s (%s) begun and never ended", id, what)
	}
}

// chaosOptions is a testbed on a fault-injecting network with retry budgets
// short enough that a partitioned peer fails an operation in well under a
// second.
func chaosOptions(seed int64, servers int, fn *rpc.FaultNetwork) cloudsim.Options {
	return cloudsim.Options{
		Seed: seed, Servers: servers, Network: fn,
		RPC: rpc.Policy{CallTimeout: 250 * time.Millisecond, MaxAttempts: 2, BaseDelay: 5 * time.Millisecond, MaxDelay: 10 * time.Millisecond, BreakerThreshold: -1},
	}
}

// TestCapacityAccountingBalanced audits the VM lifecycle across the launch
// pipeline's failure paths, teardown, remediation and crash recovery:
// every reserve is balanced by a release (a leak would eventually wedge
// the scheduler with phantom load), and after every case the controller's
// ledger, the hosts and the intents agree (auditLifecycle).
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
		auditLifecycle(t, tb, defaultCapacity)
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
		auditLifecycle(t, tb, defaultCapacity)
	})

	t.Run("unreachable appraiser registration releases the candidate", func(t *testing.T) {
		// The guest spawns and its reservation is taken before the controller
		// registers appraisal references with the Attestation Server; if that
		// registration cannot round-trip, both must be unwound.
		fn := rpc.NewFaultNetwork(rpc.NewMemNetwork(), rpc.FaultConfig{Seed: 3})
		tb, _ := newTB(t, chaosOptions(84, 2, fn))
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
		auditLifecycle(t, tb, defaultCapacity)
	})

	t.Run("unreachable host is skipped with nothing reserved on it", func(t *testing.T) {
		fn := rpc.NewFaultNetwork(rpc.NewMemNetwork(), rpc.FaultConfig{Seed: 4})
		tb, _ := newTB(t, chaosOptions(87, 2, fn))
		// Equally free servers are tried in name order: the first candidate
		// is the one that cannot be reached.
		fn.Partition("server:" + cloudsimServerName(0))
		res, err := tb.Ctrl.LaunchVMTraced(obs.SpanContext{}, req())
		if err != nil || !res.OK {
			t.Fatalf("launch did not move on to the reachable host: %v %s", err, res.Reason)
		}
		if res.Server != cloudsimServerName(1) {
			t.Fatalf("VM placed on %s through a partition", res.Server)
		}
		if got := tb.Ctrl.UsedCapacity(cloudsimServerName(0)); got != (server.Capacity{}) {
			t.Fatalf("unreachable candidate holds a reservation: %+v", got)
		}
		fn.HealAll()
		auditLifecycle(t, tb, defaultCapacity)
	})

	t.Run("startup attestation lost in transit unwinds the installed row", func(t *testing.T) {
		// The virtual clock is deterministic per seed, so a twin testbed
		// tells when the attestation stage begins; the appraiser is cut off
		// at that instant — after the guest spawned, its references were
		// registered and its row was installed, while the appraisal is in
		// flight.
		twin, _ := newTB(t, cloudsim.Options{Seed: 88, Servers: 1})
		dry, err := twin.Ctrl.LaunchVMTraced(obs.SpanContext{}, req())
		if err != nil || !dry.OK {
			t.Fatalf("twin launch: %v %s", err, dry.Reason)
		}
		attestAt := twin.Clock.Now() - dry.Stages[len(dry.Stages)-1].Duration

		fn := rpc.NewFaultNetwork(rpc.NewMemNetwork(), rpc.FaultConfig{Seed: 5})
		tb, _ := newTB(t, chaosOptions(88, 1, fn))
		tb.Clock.Kernel().At(attestAt+tb.Lat.HopRTT/2, func() { fn.Partition("attestation-server") })
		res, err := tb.Ctrl.LaunchVMTraced(obs.SpanContext{}, req())
		if err != nil || res.OK || !strings.HasPrefix(res.Reason, "startup attestation failed:") {
			t.Fatalf("launch = (%+v, %v), want a startup-attestation transport failure", res, err)
		}
		if _, err := tb.Ctrl.VMServer(res.Vid); err == nil {
			t.Fatal("failed launch left a VM row")
		}
		if got := totalUsed(tb, names[:1]); got != (server.Capacity{}) {
			t.Fatalf("failed launch leaked capacity: %+v", got)
		}
		fn.HealAll()
		auditLifecycle(t, tb, defaultCapacity)
	})

	t.Run("crash after spawn is swept by recovery", func(t *testing.T) {
		tb, _ := newTB(t, cloudsim.Options{Seed: 89, Servers: 2,
			FailPoint: func(point string) bool { return point == "launch-spawned" }})
		if _, err := tb.Ctrl.LaunchVMTraced(obs.SpanContext{}, req()); !errors.Is(err, controller.ErrCrash) {
			t.Fatalf("launch error %v, want the injected crash", err)
		}
		// The dead controller left a guest on its candidate host.
		if free := tb.Servers[cloudsimServerName(0)].Free(); free == defaultCapacity {
			t.Fatal("crash point fired before the guest spawned")
		}
		if err := tb.RestartController(); err != nil {
			t.Fatal(err)
		}
		if got := totalUsed(tb, names); got != (server.Capacity{}) {
			t.Fatalf("recovered controller holds a reservation: %+v", got)
		}
		auditLifecycle(t, tb, defaultCapacity)
	})

	t.Run("attacker is refused on a full host", func(t *testing.T) {
		// One small flavor fills the host, so a co-resident attacker must
		// be refused by the same admission check as any other guest.
		full := server.Capacity{VCPUs: 1, MemoryMB: 2048, DiskGB: 20}
		tb, cu := newTB(t, cloudsim.Options{Seed: 90, Servers: 1, Capacity: full})
		r := req()
		r.Workload = "cached-server"
		res, err := cu.Launch(r)
		if err != nil || !res.OK {
			t.Fatalf("launch: %v %s", err, res.Reason)
		}
		if vid, err := tb.LaunchCoResident(res.Server, "attack:rfa:"+res.Vid, 0); err == nil {
			t.Fatalf("attacker %s admitted onto a full host", vid)
		}
		auditLifecycle(t, tb, full)
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
		auditLifecycle(t, tb, defaultCapacity)
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
		auditLifecycle(t, tb, defaultCapacity)
	})
}
