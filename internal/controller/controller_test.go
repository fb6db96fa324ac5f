package controller_test

import (
	"testing"
	"time"

	"cloudmonatt/internal/cloudsim"
	"cloudmonatt/internal/controller"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/rpc"
	"cloudmonatt/internal/server"
	"cloudmonatt/internal/wire"
)

func newTB(t *testing.T, opts cloudsim.Options) (*cloudsim.Testbed, *cloudsim.Customer) {
	t.Helper()
	tb, err := cloudsim.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	cu, err := tb.NewCustomer("tester")
	if err != nil {
		t.Fatal(err)
	}
	return tb, cu
}

func req() controller.LaunchRequest {
	return controller.LaunchRequest{
		ImageName: "cirros", Flavor: "small", Workload: "idle",
		Props:     properties.All,
		Allowlist: []string{"init", "sshd", "cron", "rsyslogd", "agetty"},
		Pin:       -1,
	}
}

func TestLaunchValidation(t *testing.T) {
	_, cu := newTB(t, cloudsim.Options{Seed: 61})
	r := req()
	r.Flavor = "giant"
	if _, err := cu.Launch(r); err == nil {
		t.Fatal("unknown flavor accepted")
	}
	r = req()
	r.ImageName = "debian"
	if _, err := cu.Launch(r); err == nil {
		t.Fatal("unknown image accepted")
	}
	r = req()
	r.Props = []properties.Property{"bogus"}
	if _, err := cu.Launch(r); err == nil {
		t.Fatal("bogus property accepted")
	}
}

func TestSchedulerSpreadsLoad(t *testing.T) {
	tb, cu := newTB(t, cloudsim.Options{Seed: 62, Servers: 3})
	seen := make(map[string]int)
	for i := 0; i < 3; i++ {
		res, err := cu.Launch(req())
		if err != nil || !res.OK {
			t.Fatalf("launch %d: %v %s", i, err, res.Reason)
		}
		seen[res.Server]++
	}
	if len(seen) != 3 {
		t.Fatalf("most-free weigher did not spread: %v", seen)
	}
	_ = tb
}

func TestMigrateWithoutDestinationTerminates(t *testing.T) {
	// One server only: migration policy for availability has nowhere to go,
	// so the VM is terminated for security (paper §5.3).
	tb, cu := newTB(t, cloudsim.Options{Seed: 63, Servers: 1})
	r := req()
	r.Workload = "spinner"
	r.MinShare = 0.25
	r.Pin = 1
	res, err := cu.Launch(r)
	if err != nil || !res.OK {
		t.Fatalf("launch: %v %s", err, res.Reason)
	}
	if _, err := tb.LaunchCoResident(res.Server, "attack:cpu-starver", 1); err != nil {
		t.Fatal(err)
	}
	v, err := cu.Attest(res.Vid, properties.CPUAvailability)
	if err != nil {
		t.Fatal(err)
	}
	if v.Healthy {
		t.Fatalf("starved VM healthy: %v", v)
	}
	events := tb.Ctrl.Events()
	if len(events) != 1 {
		t.Fatalf("events: %+v", events)
	}
	if events[0].Response != controller.Migrate || !events[0].Terminated {
		t.Fatalf("expected failed migration ending in termination, got %+v", events[0])
	}
	if st, _ := tb.Ctrl.VMState(res.Vid); st != "terminated" {
		t.Fatalf("state %q", st)
	}
}

func TestUnknownVMQueries(t *testing.T) {
	tb, _ := newTB(t, cloudsim.Options{Seed: 64})
	if _, err := tb.Ctrl.VMServer("ghost"); err == nil {
		t.Fatal("VMServer for ghost VM")
	}
	if _, err := tb.Ctrl.VMState("ghost"); err == nil {
		t.Fatal("VMState for ghost VM")
	}
	if err := tb.Ctrl.TerminateVM("ghost"); err == nil {
		t.Fatal("terminated ghost VM")
	}
	if err := tb.Ctrl.SuspendVM("ghost"); err == nil {
		t.Fatal("suspended ghost VM")
	}
	if err := tb.Ctrl.ResumeVM("ghost"); err == nil {
		t.Fatal("resumed ghost VM")
	}
	if _, err := tb.Ctrl.MigrateVM("ghost"); err == nil {
		t.Fatal("migrated ghost VM")
	}
}

func TestDoubleTerminateRejected(t *testing.T) {
	tb, cu := newTB(t, cloudsim.Options{Seed: 65})
	res, err := cu.Launch(req())
	if err != nil || !res.OK {
		t.Fatalf("launch: %v %s", err, res.Reason)
	}
	if err := tb.Ctrl.TerminateVM(res.Vid); err != nil {
		t.Fatal(err)
	}
	if err := tb.Ctrl.TerminateVM(res.Vid); err == nil {
		t.Fatal("double terminate accepted")
	}
}

func TestExplicitMigration(t *testing.T) {
	tb, cu := newTB(t, cloudsim.Options{Seed: 66, Servers: 2})
	res, err := cu.Launch(req())
	if err != nil || !res.OK {
		t.Fatalf("launch: %v %s", err, res.Reason)
	}
	src := res.Server
	dest, err := tb.Ctrl.MigrateVM(res.Vid)
	if err != nil {
		t.Fatal(err)
	}
	if dest == src {
		t.Fatal("migrated onto the same server")
	}
	now, _ := tb.Ctrl.VMServer(res.Vid)
	if now != dest {
		t.Fatalf("controller DB says %s, migration said %s", now, dest)
	}
	// The VM is attestable at its new home.
	v, err := cu.Attest(res.Vid, properties.RuntimeIntegrity)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Healthy {
		t.Fatalf("migrated VM unhealthy: %v", v)
	}
}

func TestDefaultPolicyCoversRuntimeProperties(t *testing.T) {
	p := controller.DefaultPolicy()
	for _, prop := range []properties.Property{
		properties.RuntimeIntegrity, properties.CovertChannelFreedom, properties.CPUAvailability,
	} {
		if p[prop] == "" {
			t.Errorf("no default response for %s", prop)
		}
	}
}

func TestPeriodicThroughController(t *testing.T) {
	tb, cu := newTB(t, cloudsim.Options{Seed: 67})
	res, err := cu.Launch(req())
	if err != nil || !res.OK {
		t.Fatalf("launch: %v %s", err, res.Reason)
	}
	if err := cu.StartPeriodic(res.Vid, properties.CPUAvailability, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := cu.StartPeriodic(res.Vid, "bogus", 5*time.Second); err == nil {
		t.Fatal("periodic armed for unprovisioned property")
	}
	tb.RunFor(12 * time.Second)
	vs, err := cu.FetchPeriodic(res.Vid, properties.CPUAvailability)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) < 1 {
		t.Fatal("no periodic results via the controller")
	}
	left, err := cu.StopPeriodic(res.Vid, properties.CPUAvailability)
	if err != nil {
		t.Fatal(err)
	}
	_ = left
	if _, err := cu.FetchPeriodic("ghost", properties.CPUAvailability); err == nil {
		t.Fatal("fetch for ghost VM succeeded")
	}
	if _, err := cu.StopPeriodic("ghost", properties.CPUAvailability); err == nil {
		t.Fatal("stop for ghost VM succeeded")
	}
}

func TestRandomPeriodicThroughController(t *testing.T) {
	tb, cu := newTB(t, cloudsim.Options{Seed: 68})
	res, err := cu.Launch(req())
	if err != nil || !res.OK {
		t.Fatalf("launch: %v %s", err, res.Reason)
	}
	if err := cu.StartPeriodicRandom(res.Vid, properties.CPUAvailability, 4*time.Second); err != nil {
		t.Fatal(err)
	}
	tb.RunFor(25 * time.Second)
	vs, err := cu.FetchPeriodic(res.Vid, properties.CPUAvailability)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) < 2 {
		t.Fatalf("only %d random-interval results over 25s at ~4s mean", len(vs))
	}
}

func TestListVMsAndEventsScopedToOwner(t *testing.T) {
	tb, cu := newTB(t, cloudsim.Options{Seed: 69})
	res, err := cu.Launch(req())
	if err != nil || !res.OK {
		t.Fatalf("launch: %v %s", err, res.Reason)
	}
	mine := tb.Ctrl.ListVMs("tester")
	if len(mine) != 1 || mine[0].Vid != res.Vid || mine[0].State != "active" {
		t.Fatalf("ListVMs(owner) = %+v", mine)
	}
	if others := tb.Ctrl.ListVMs("someone-else"); len(others) != 0 {
		t.Fatalf("foreign owner sees VMs: %+v", others)
	}
	// Trigger a response and check EventsFor scoping.
	g, err := tb.GuestOf(res.Vid)
	if err != nil {
		t.Fatal(err)
	}
	g.InfectRootkit("bad")
	if v, err := cu.Attest(res.Vid, properties.RuntimeIntegrity); err != nil || v.Healthy {
		t.Fatalf("infection not flagged: %v %v", v, err)
	}
	if evs := tb.Ctrl.EventsFor("tester"); len(evs) != 1 || evs[0].Response != controller.Terminate {
		t.Fatalf("EventsFor(owner) = %+v", evs)
	}
	if evs := tb.Ctrl.EventsFor("someone-else"); len(evs) != 0 {
		t.Fatalf("foreign owner sees events: %+v", evs)
	}
	// Terminated VMs drop out of the listing.
	if mine := tb.Ctrl.ListVMs("tester"); len(mine) != 0 {
		t.Fatalf("terminated VM still listed: %+v", mine)
	}
}

func TestHandlerRejectsGarbage(t *testing.T) {
	tb, _ := newTB(t, cloudsim.Options{Seed: 70})
	h := tb.Ctrl.Handler()
	for _, method := range []string{
		controller.MethodLaunchVM, controller.MethodTerminateVM,
		controller.MethodStartupAttestCurrent, controller.MethodRuntimeAttestCurrent,
		controller.MethodRuntimeAttestPeriodic,
		controller.MethodStopAttestPeriodic, controller.MethodFetchPeriodic,
		controller.MethodVMStatus,
	} {
		if _, err := h(rpcPeer("x"), method, []byte("not-a-message")); err == nil {
			t.Errorf("%s accepted garbage body", method)
		}
	}
	if _, err := h(rpcPeer("x"), "no-such-method", nil); err == nil {
		t.Error("unknown method accepted")
	}
}

func rpcPeer(name string) rpc.Peer { return rpc.Peer{Name: name} }

// TestHandlerScopesToThePeer: through the nova api, a customer sees the
// status, the listing and the remediation events of its own VMs only.
func TestHandlerScopesToThePeer(t *testing.T) {
	policy := controller.DefaultPolicy()
	policy[properties.RuntimeIntegrity] = controller.Suspend
	tb, cu := newTB(t, cloudsim.Options{Seed: 73, Policy: policy})
	res, err := cu.Launch(req())
	if err != nil || !res.OK {
		t.Fatalf("launch: %v %s", err, res.Reason)
	}
	if _, err := tb.Ctrl.Respond(res.Vid, properties.RuntimeIntegrity, "rootkit"); err != nil {
		t.Fatal(err)
	}
	h := tb.Ctrl.Handler()
	body, err := rpc.Encode(wire.VidRequest{Vid: res.Vid})
	if err != nil {
		t.Fatal(err)
	}
	for _, peer := range []string{"tester", "mallory"} {
		own := peer == "tester"
		out, err := h(rpcPeer(peer), controller.MethodVMStatus, body)
		var st wire.VMStatus
		if err == nil {
			err = rpc.Decode(out, &st)
		}
		if own && (err != nil || st.Vid != res.Vid) {
			t.Errorf("%s's vm_status of its VM: %+v, %v", peer, st, err)
		}
		if !own && err == nil {
			t.Errorf("%s read another customer's VM status: %+v", peer, st)
		}

		var vms controller.VMSummaryList
		out, err = h(rpcPeer(peer), controller.MethodListVMs, nil)
		if err == nil {
			err = rpc.Decode(out, &vms)
		}
		if err != nil || (len(vms) == 1) != own || (own && vms[0].Vid != res.Vid) {
			t.Errorf("%s's list_vms: %+v, %v", peer, vms, err)
		}

		var events controller.ResponseEventList
		out, err = h(rpcPeer(peer), controller.MethodListEvents, nil)
		if err == nil {
			err = rpc.Decode(out, &events)
		}
		if err != nil || (len(events) == 1) != own || (own && events[0].Vid != res.Vid) {
			t.Errorf("%s's list_events: %+v, %v", peer, events, err)
		}
	}
}

func TestLaunchSurvivesDeadServer(t *testing.T) {
	// Failure injection: a registered server that is not listening. The
	// scheduler will try it (it looks maximally free) and must fall through
	// to a live candidate instead of failing the launch.
	tb, cu := newTB(t, cloudsim.Options{Seed: 71, Servers: 2})
	tb.Ctrl.RegisterServer(controller.ServerEntry{
		Name:     "dead-server",
		Addr:     "server:nowhere",
		Capacity: deadCapacity(),
		Props:    properties.All,
	})
	res, err := cu.Launch(req())
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("launch failed instead of skipping the dead server: %s", res.Reason)
	}
	if res.Server == "dead-server" {
		t.Fatal("VM placed on a dead server")
	}
}

// deadCapacity makes the dead server the most attractive candidate.
func deadCapacity() (c serverCapacity) {
	c.VCPUs, c.MemoryMB, c.DiskGB = 64, 1<<17, 2000
	return
}

type serverCapacity = server.Capacity
