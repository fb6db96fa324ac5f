package server

import (
	"testing"
	"time"

	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/rpc"
	"cloudmonatt/internal/trust/driver"
	"cloudmonatt/internal/wire"
)

// call drives the server's RPC dispatch directly (no network), as the
// attestation server and controller do over their channels.
func call(t *testing.T, s *Server, method string, req, resp any) error {
	t.Helper()
	body, err := rpc.Encode(req)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Handler()(rpc.Peer{Name: "controller"}, method, body)
	if err != nil {
		return err
	}
	return rpc.Decode(out, resp) // a nil resp expects the bodiless ack
}

func TestHandlerLifecycle(t *testing.T) {
	r := newRig(t)
	s := r.srv

	if err := call(t, s, MethodLaunch, smallSpec("vm-1", "database"), nil); err != nil {
		t.Fatalf("launch: %v", err)
	}
	r.clock.Advance(300 * time.Millisecond)

	var info VMInfo
	if err := call(t, s, MethodInfo, wire.VidRequest{Vid: "vm-1"}, &info); err != nil {
		t.Fatal(err)
	}
	if info.Runtime <= 0 || info.State != "running" {
		t.Fatalf("info: %+v", info)
	}

	if err := call(t, s, MethodSuspend, wire.VidRequest{Vid: "vm-1"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := call(t, s, MethodResume, wire.VidRequest{Vid: "vm-1"}, nil); err != nil {
		t.Fatal(err)
	}

	var spec LaunchSpec
	if err := call(t, s, MethodMigrateOut, wire.VidRequest{Vid: "vm-1"}, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.Vid != "vm-1" {
		t.Fatalf("migrate-out spec: %+v", spec)
	}

	if err := call(t, s, MethodLaunch, spec, nil); err != nil {
		t.Fatalf("relaunch after migrate-out: %v", err)
	}
	if err := call(t, s, MethodTerminate, wire.VidRequest{Vid: "vm-1"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := call(t, s, MethodInfo, wire.VidRequest{Vid: "vm-1"}, &info); err == nil {
		t.Fatal("info for terminated VM succeeded")
	}
}

func TestHandlerMeasure(t *testing.T) {
	r := newRig(t)
	if err := call(t, r.srv, MethodLaunch, smallSpec("vm-1", "database"), nil); err != nil {
		t.Fatal(err)
	}
	req, err := driver.MapToMeasurements(driver.BackendTPM, properties.RuntimeIntegrity)
	if err != nil {
		t.Fatal(err)
	}
	n3 := cryptoutil.MustNonce()
	var ev wire.Evidence
	if err := call(t, r.srv, MethodMeasure, wire.MeasureRequest{Vid: "vm-1", Req: req, N3: n3}, &ev); err != nil {
		t.Fatal(err)
	}
	if err := wire.VerifyEvidence(&ev, r.ca.Name(), r.ca.PublicKey(), "vm-1", req, n3); err != nil {
		t.Fatalf("handler evidence does not verify: %v", err)
	}
}

func TestHandlerErrors(t *testing.T) {
	r := newRig(t)
	if _, err := r.srv.Handler()(rpc.Peer{}, "no-such-method", nil); err == nil {
		t.Fatal("unknown method accepted")
	}
	if _, err := r.srv.Handler()(rpc.Peer{}, MethodLaunch, []byte("not-a-message")); err == nil {
		t.Fatal("garbage body accepted")
	}
	if err := call(t, r.srv, MethodTerminate, wire.VidRequest{Vid: "ghost"}, nil); err == nil {
		t.Fatal("terminate of ghost VM succeeded")
	}
	if err := call(t, r.srv, MethodMigrateOut, wire.VidRequest{Vid: "ghost"}, nil); err == nil {
		t.Fatal("migrate-out of ghost VM succeeded")
	}
}

func TestCachedServerAndRFAHandles(t *testing.T) {
	r := newRig(t)
	if err := r.srv.Launch(smallSpec("vm-c", "cached-server")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.srv.CachedServerOf("vm-c"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.srv.CachedServerOf("ghost"); err == nil {
		t.Fatal("cached server of ghost VM")
	}
	if err := r.srv.Launch(smallSpec("vm-i", "idle")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.srv.CachedServerOf("vm-i"); err == nil {
		t.Fatal("idle VM reported a cached server")
	}
	if err := r.srv.Launch(smallSpec("vm-a", "attack:rfa:vm-c")); err != nil {
		t.Fatal(err)
	}
	if err := r.srv.Launch(smallSpec("vm-a", "attack:rfa:vm-c")); err == nil {
		t.Fatal("duplicate RFA vid accepted")
	}
	if err := r.srv.Launch(smallSpec("vm-b", "attack:rfa:vm-i")); err == nil {
		t.Fatal("RFA against a non-cached target accepted")
	}
	r.clock.Advance(500 * time.Millisecond)
	info, err := r.srv.Info("vm-a")
	if err != nil {
		t.Fatal(err)
	}
	if info.Runtime <= 0 {
		t.Fatal("RFA attacker never ran")
	}
}

func TestBusCovertWorkloadLaunches(t *testing.T) {
	r := newRig(t)
	if err := r.srv.Launch(smallSpec("vm-b", "attack:bus-covert-sender")); err != nil {
		t.Fatal(err)
	}
	r.clock.Advance(300 * time.Millisecond)
	info, _ := r.srv.Info("vm-b")
	if info.Runtime <= 0 {
		t.Fatal("bus covert sender never ran")
	}
}

func TestGuestAndDomainAccessors(t *testing.T) {
	r := newRig(t)
	if err := r.srv.Launch(smallSpec("vm-1", "idle")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.srv.Guest("vm-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.srv.Domain("vm-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.srv.Guest("ghost"); err == nil {
		t.Fatal("guest of ghost VM")
	}
	if _, err := r.srv.Domain("ghost"); err == nil {
		t.Fatal("domain of ghost VM")
	}
	if r.srv.TrustModule() == nil || r.srv.Hypervisor() == nil {
		t.Fatal("module accessors nil")
	}
}
