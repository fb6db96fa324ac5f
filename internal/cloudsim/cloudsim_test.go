package cloudsim

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"cloudmonatt/internal/controller"
	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/metrics"
	"cloudmonatt/internal/oracle"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/rpc"
	"cloudmonatt/internal/server"
)

// newTB builds a testbed and puts its finished run under the whole-run
// oracle when the test ends, so every scenario here, faults and attacks
// included, must leave a ledger and metrics that keep the oracle's claims.
func newTB(t *testing.T, opts Options) *Testbed {
	t.Helper()
	tb, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { checkOracle(t, tb) })
	return tb
}

// checkOracle judges the finished run tb leaves behind — its ledger, the
// ledger head signed by the controller and every shard's metrics — and
// fails the test on each violation the oracle finds.
func checkOracle(t testing.TB, tb *Testbed) {
	t.Helper()
	shards := make(map[string]metrics.RegistrySnapshot)
	for _, as := range tb.AttestServers {
		shards[as.Shard()] = as.Metrics().Snapshot()
	}
	for _, v := range oracle.Check(oracle.Run{
		Ledger:        tb.Ledger,
		Checkpoint:    tb.Ledger.Checkpoint(tb.ctrlID),
		CheckpointKey: tb.ctrlID.Public(),
		Shards:        shards,
	}) {
		t.Errorf("oracle: %v", v)
	}
}

func launch(t *testing.T, cu *Customer, req controller.LaunchRequest) controller.LaunchResult {
	t.Helper()
	res, err := cu.Launch(req)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("launch rejected: %s", res.Reason)
	}
	return res
}

func basicLaunch() controller.LaunchRequest {
	return controller.LaunchRequest{
		ImageName: "ubuntu",
		Flavor:    "small",
		Workload:  "database",
		Props:     properties.All,
		Allowlist: []string{"init", "sshd", "cron", "rsyslogd", "agetty"},
		MinShare:  0.25,
		Pin:       -1,
	}
}

func TestLaunchPipelineStages(t *testing.T) {
	tb := newTB(t, Options{Seed: 1})
	cu, err := tb.NewCustomer("alice")
	if err != nil {
		t.Fatal(err)
	}
	res := launch(t, cu, basicLaunch())
	want := []string{"scheduling", "networking", "block_device_mapping", "spawning", "attestation"}
	if len(res.Stages) != len(want) {
		t.Fatalf("stages = %+v", res.Stages)
	}
	var total time.Duration
	for i, st := range res.Stages {
		if st.Stage != want[i] {
			t.Fatalf("stage %d = %s, want %s", i, st.Stage, want[i])
		}
		if st.Duration <= 0 {
			t.Fatalf("stage %s has no duration", st.Stage)
		}
		total += st.Duration
	}
	if total < 2*time.Second || total > 8*time.Second {
		t.Fatalf("total launch time %v outside the paper's range", total)
	}
	if !res.Verdict.Healthy {
		t.Fatalf("pristine launch attested unhealthy: %v", res.Verdict)
	}
	if res.Server == "" {
		t.Fatal("no server assigned")
	}
}

func TestStartupAttestationRejectsCorruptImage(t *testing.T) {
	tb := newTB(t, Options{Seed: 2})
	cu, _ := tb.NewCustomer("alice")
	tb.CorruptNextImage()
	res, err := cu.Launch(basicLaunch())
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("corrupted image launched successfully")
	}
	if !strings.Contains(res.Reason, "image") {
		t.Fatalf("rejection reason %q does not blame the image", res.Reason)
	}
	// The rejected VM must not be running anywhere.
	if _, err := tb.ServerOf(res.Vid); err == nil {
		t.Fatal("rejected VM still placed")
	}
}

func TestStartupAttestationReschedulesOffTamperedPlatform(t *testing.T) {
	// Three servers; two have trojaned hypervisors. The scheduler prefers
	// emptier servers arbitrarily, but attestation must steer the VM onto
	// the sole pristine platform.
	tamper := map[string]bool{serverName(0): true, serverName(2): true}
	tb := newTB(t, Options{Seed: 3, Servers: 3, TamperPlatform: tamper})
	cu, _ := tb.NewCustomer("alice")
	for i := 0; i < 3; i++ {
		res := launch(t, cu, basicLaunch())
		if res.Server != serverName(1) {
			t.Fatalf("VM placed on tampered server %s", res.Server)
		}
	}
}

func TestAllPlatformsTamperedRejectsLaunch(t *testing.T) {
	tamper := map[string]bool{serverName(0): true, serverName(1): true, serverName(2): true}
	tb := newTB(t, Options{Seed: 4, Servers: 3, TamperPlatform: tamper})
	cu, _ := tb.NewCustomer("alice")
	res, err := cu.Launch(basicLaunch())
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("launch succeeded with every platform compromised")
	}
}

func TestRuntimeIntegrityEndToEnd(t *testing.T) {
	tb := newTB(t, Options{Seed: 5})
	cu, _ := tb.NewCustomer("alice")
	res := launch(t, cu, basicLaunch())
	tb.RunFor(2 * time.Second)

	v, err := cu.Attest(res.Vid, properties.RuntimeIntegrity)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Healthy {
		t.Fatalf("clean VM judged infected: %v", v)
	}

	// Infect with a rootkit; the next attestation must catch it and the
	// response policy (Termination for runtime integrity) must fire.
	g, err := tb.GuestOf(res.Vid)
	if err != nil {
		t.Fatal(err)
	}
	g.InfectRootkit("stealth-miner")
	v, err = cu.Attest(res.Vid, properties.RuntimeIntegrity)
	if err != nil {
		t.Fatal(err)
	}
	if v.Healthy {
		t.Fatal("rootkit passed runtime integrity end to end")
	}
	events := tb.Ctrl.Events()
	if len(events) != 1 || events[0].Response != controller.Terminate {
		t.Fatalf("expected termination response, got %+v", events)
	}
	if st, _ := tb.Ctrl.VMState(res.Vid); st != "terminated" {
		t.Fatalf("VM state %q after response", st)
	}
}

func TestAvailabilityAttackDetectedAndMigrated(t *testing.T) {
	tb := newTB(t, Options{Seed: 6, Servers: 2})
	cu, _ := tb.NewCustomer("alice")
	req := basicLaunch()
	req.Workload = "spinner"
	req.Pin = 1 // keep clear of Dom0's pCPU 0
	res := launch(t, cu, req)
	srcServer := res.Server

	// Healthy first: fair share on an idle server.
	v, err := cu.Attest(res.Vid, properties.CPUAvailability)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Healthy {
		t.Fatalf("unloaded VM failed availability: %v", v)
	}

	// Co-locate the starvation attacker on the same pCPU.
	if _, err := tb.LaunchCoResident(srcServer, "attack:cpu-starver", 1); err != nil {
		t.Fatal(err)
	}
	tb.RunFor(time.Second)
	v, err = cu.Attest(res.Vid, properties.CPUAvailability)
	if err != nil {
		t.Fatal(err)
	}
	if v.Healthy {
		t.Fatalf("starved VM judged healthy: %v", v)
	}
	// Policy: migration to the other server.
	events := tb.Ctrl.Events()
	if len(events) != 1 || events[0].Response != controller.Migrate {
		t.Fatalf("expected migration, got %+v", events)
	}
	newServer, err := tb.Ctrl.VMServer(res.Vid)
	if err != nil {
		t.Fatal(err)
	}
	if newServer == srcServer {
		t.Fatal("VM not moved off the attacked server")
	}
	// After migration, availability recovers.
	tb.RunFor(time.Second)
	v, err = cu.Attest(res.Vid, properties.CPUAvailability)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Healthy {
		t.Fatalf("migrated VM still starved: %v", v)
	}
}

func TestCovertChannelDetectedEndToEnd(t *testing.T) {
	tb := newTB(t, Options{Seed: 7, Servers: 2})
	cu, _ := tb.NewCustomer("alice")
	req := basicLaunch()
	req.Workload = "attack:covert-sender" // colluding insider in the VM
	req.Allowlist = nil
	req.Pin = 1
	res := launch(t, cu, req)

	// Co-resident receiver probing on the same pCPU.
	if _, err := tb.LaunchCoResident(res.Server, "probe", 1); err != nil {
		t.Fatal(err)
	}
	tb.RunFor(500 * time.Millisecond)
	v, err := cu.Attest(res.Vid, properties.CovertChannelFreedom)
	if err != nil {
		t.Fatal(err)
	}
	if v.Healthy {
		t.Fatalf("covert channel not detected end to end: %v", v)
	}
}

func TestCovertChannelBenignVMPasses(t *testing.T) {
	tb := newTB(t, Options{Seed: 8})
	cu, _ := tb.NewCustomer("alice")
	req := basicLaunch()
	req.Pin = 1
	res := launch(t, cu, req)
	if _, err := tb.LaunchCoResident(res.Server, "probe", 1); err != nil {
		t.Fatal(err)
	}
	tb.RunFor(500 * time.Millisecond)
	v, err := cu.Attest(res.Vid, properties.CovertChannelFreedom)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Healthy {
		t.Fatalf("benign database VM flagged: %v", v)
	}
}

func TestPeriodicAttestationDeliversFreshResults(t *testing.T) {
	tb := newTB(t, Options{Seed: 9})
	cu, _ := tb.NewCustomer("alice")
	res := launch(t, cu, basicLaunch())
	if err := cu.StartPeriodic(res.Vid, properties.CPUAvailability, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	tb.RunFor(21 * time.Second)
	verdicts, err := cu.FetchPeriodic(res.Vid, properties.CPUAvailability)
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) < 3 {
		t.Fatalf("got %d periodic verdicts over ~21s at 5s frequency", len(verdicts))
	}
	for _, v := range verdicts {
		if !v.Healthy {
			t.Fatalf("healthy VM flagged by periodic attestation: %v", v)
		}
	}
	// Fetch drains: immediate refetch is empty.
	verdicts, err = cu.FetchPeriodic(res.Vid, properties.CPUAvailability)
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != 0 {
		t.Fatalf("fetch did not drain: %d left", len(verdicts))
	}
	// Stop ends the stream.
	if _, err := cu.StopPeriodic(res.Vid, properties.CPUAvailability); err != nil {
		t.Fatal(err)
	}
	before := tb.Clock.Now()
	tb.RunFor(10 * time.Second)
	if tb.Clock.Now()-before < 10*time.Second {
		t.Fatal("RunFor under-advanced after stop")
	}
	if vs, _ := cu.FetchPeriodic(res.Vid, properties.CPUAvailability); len(vs) != 0 {
		t.Fatalf("results produced after stop: %d", len(vs))
	}
}

func TestAttestUnprovisionedPropertyRejected(t *testing.T) {
	tb := newTB(t, Options{Seed: 10})
	cu, _ := tb.NewCustomer("alice")
	req := basicLaunch()
	req.Props = []properties.Property{properties.RuntimeIntegrity}
	res := launch(t, cu, req)
	if _, err := cu.Attest(res.Vid, properties.CPUAvailability); err == nil {
		t.Fatal("attested a property the VM was not provisioned with")
	}
}

func TestAttestUnknownVM(t *testing.T) {
	tb := newTB(t, Options{Seed: 11})
	cu, _ := tb.NewCustomer("alice")
	if _, err := cu.Attest("vm-9999", properties.RuntimeIntegrity); err == nil {
		t.Fatal("attested a nonexistent VM")
	}
}

func TestCustomerTerminate(t *testing.T) {
	tb := newTB(t, Options{Seed: 12})
	cu, _ := tb.NewCustomer("alice")
	res := launch(t, cu, basicLaunch())
	if err := cu.Terminate(res.Vid); err != nil {
		t.Fatal(err)
	}
	if _, err := cu.Attest(res.Vid, properties.RuntimeIntegrity); err == nil {
		t.Fatal("attested a terminated VM")
	}
	if st, _ := tb.Ctrl.VMState(res.Vid); st != "terminated" {
		t.Fatalf("state %q", st)
	}
}

func TestSuspensionPolicyAndResume(t *testing.T) {
	policy := controller.DefaultPolicy()
	policy[properties.RuntimeIntegrity] = controller.Suspend
	tb := newTB(t, Options{Seed: 13, Policy: policy})
	cu, _ := tb.NewCustomer("alice")
	res := launch(t, cu, basicLaunch())
	g, _ := tb.GuestOf(res.Vid)
	g.InfectRootkit("stealth-miner")
	if v, err := cu.Attest(res.Vid, properties.RuntimeIntegrity); err != nil || v.Healthy {
		t.Fatalf("infection not flagged (v=%v err=%v)", v, err)
	}
	if st, _ := tb.Ctrl.VMState(res.Vid); st != "suspended" {
		t.Fatalf("state %q, want suspended", st)
	}
	// The operator cleans the VM and the controller resumes it.
	if err := tb.Ctrl.ResumeVM(res.Vid); err != nil {
		t.Fatal(err)
	}
	if st, _ := tb.Ctrl.VMState(res.Vid); st != "active" {
		t.Fatalf("state %q after resume", st)
	}
}

func TestMultipleCustomersIsolated(t *testing.T) {
	tb := newTB(t, Options{Seed: 14})
	alice, _ := tb.NewCustomer("alice")
	bob, _ := tb.NewCustomer("bob")
	ra := launch(t, alice, basicLaunch())
	rb := launch(t, bob, basicLaunch())
	if ra.Vid == rb.Vid {
		t.Fatal("two customers share a Vid")
	}
	va, err := alice.Attest(ra.Vid, properties.RuntimeIntegrity)
	if err != nil || !va.Healthy {
		t.Fatalf("alice attest: %v %v", va, err)
	}
	vb, err := bob.Attest(rb.Vid, properties.RuntimeIntegrity)
	if err != nil || !vb.Healthy {
		t.Fatalf("bob attest: %v %v", vb, err)
	}
}

func TestSchedulerRespectsCapacity(t *testing.T) {
	tb := newTB(t, Options{Seed: 15, Servers: 1, Capacity: serverCap(2, 4096, 40)})
	cu, _ := tb.NewCustomer("alice")
	req := basicLaunch()
	req.Flavor = "small" // 1 vCPU each; Capacity 2 vCPUs
	launch(t, cu, req)
	launch(t, cu, req)
	res, err := cu.Launch(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("third VM launched beyond capacity")
	}
}

func serverCap(vcpus, mem, disk int) (c serverCapacity) {
	c.VCPUs, c.MemoryMB, c.DiskGB = vcpus, mem, disk
	return
}

type serverCapacity = server.Capacity

// TestConcurrentCustomers exercises thread safety: several customers
// launching and attesting in parallel over the shared infrastructure.
func TestConcurrentCustomers(t *testing.T) {
	tb := newTB(t, Options{Seed: 16, Servers: 3})
	const n = 4
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("cust-%d", i)
		go func() {
			cu, err := tb.NewCustomer(name)
			if err != nil {
				errs <- err
				return
			}
			req := basicLaunch()
			req.Flavor = "small"
			res, err := cu.Launch(req)
			if err != nil {
				errs <- err
				return
			}
			if !res.OK {
				errs <- fmt.Errorf("%s: launch rejected: %s", name, res.Reason)
				return
			}
			for j := 0; j < 3; j++ {
				v, err := cu.Attest(res.Vid, properties.RuntimeIntegrity)
				if err != nil {
					errs <- fmt.Errorf("%s attest: %w", name, err)
					return
				}
				if !v.Healthy {
					errs <- fmt.Errorf("%s: clean VM unhealthy: %v", name, v)
					return
				}
			}
			errs <- cu.Terminate(res.Vid)
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestScaleManyVMsManyServers launches a fleet across a larger cloud and
// attests every VM — the scalability smoke test for the scheduler, the
// attestation fan-out and the per-VM bookkeeping.
func TestScaleManyVMsManyServers(t *testing.T) {
	tb := newTB(t, Options{Seed: 17, Servers: 8})
	cu, _ := tb.NewCustomer("fleet-owner")
	req := basicLaunch()
	req.Flavor = "small"
	var vids []string
	perServer := make(map[string]int)
	for i := 0; i < 24; i++ {
		res, err := cu.Launch(req)
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK {
			t.Fatalf("launch %d rejected: %s", i, res.Reason)
		}
		vids = append(vids, res.Vid)
		perServer[res.Server]++
	}
	// The most-free weigher spreads the fleet: 24 VMs over 8 servers = 3 each.
	for srv, n := range perServer {
		if n != 3 {
			t.Errorf("server %s hosts %d VMs, want 3 (weigher not balancing)", srv, n)
		}
	}
	tb.RunFor(time.Second)
	for _, vid := range vids {
		v, err := cu.Attest(vid, properties.RuntimeIntegrity)
		if err != nil {
			t.Fatalf("%s: %v", vid, err)
		}
		if !v.Healthy {
			t.Fatalf("%s unhealthy: %v", vid, v)
		}
	}
	// Tear half of them down; capacity is released.
	for i, vid := range vids {
		if i%2 == 0 {
			if err := cu.Terminate(vid); err != nil {
				t.Fatal(err)
			}
		}
	}
	free := 0
	for _, srv := range tb.Servers {
		free += srv.Free().VCPUs
	}
	// 8 servers x 16 vCPUs - 12 remaining VMs x1 - 8 Dom0... Dom0 is not
	// capacity-accounted; expect 128 - 12 = 116.
	if free != 116 {
		t.Fatalf("free vCPUs after teardown = %d, want 116", free)
	}
}

// TestHotPathOptions holds a default testbed to its hot path: an
// Attestation Server keeps the resumption tickets of its measurement
// channels, so its redial to a cloud server skips the asymmetric handshake.
func TestHotPathOptions(t *testing.T) {
	counted := &byteCountingNetwork{inner: rpc.NewMemNetwork()}
	tb := newTB(t, Options{Seed: 1, Servers: 1, Network: counted})
	cu, err := tb.NewCustomer("alice")
	if err != nil {
		t.Fatal(err)
	}
	res := launch(t, cu, basicLaunch())
	// Registering the server again drops the shard's channel to it.
	for _, rec := range tb.Attest.Servers() {
		tb.Attest.RegisterServer(rec)
	}
	dials, ops := counted.dials.Load(), cryptoutil.Ops()
	v, err := cu.Attest(res.Vid, properties.RuntimeIntegrity)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Healthy {
		t.Fatalf("healthy VM attested unhealthy: %s", v.Reason)
	}
	if n := counted.dials.Load() - dials; n != 1 {
		t.Fatalf("the attestation dialed %d times, want the shard's one redial", n)
	}
	if n := cryptoutil.Ops().Sub(ops).ECDH; n != 0 {
		t.Fatalf("the redial ran %d X25519 operations: it did not resume", n)
	}
}

// TestOneSeedDistinctKeys: the seed drives the simulation, not the keys.
// Two testbeds built from one seed replay one virtual run, yet every
// identity in them is its own draw from the testbed's entropy source, so
// the seed a run is published with rebuilds none of its keys.
func TestOneSeedDistinctKeys(t *testing.T) {
	keys := func() map[string][]byte {
		tb := newTB(t, Options{Seed: 1, Servers: 1})
		cu, err := tb.NewCustomer("alice")
		if err != nil {
			t.Fatal(err)
		}
		defer cu.Close()
		tb.mu.Lock()
		defer tb.mu.Unlock()
		out := map[string][]byte{"privacy-ca": tb.PCA.PublicKey()}
		for name, key := range tb.directory {
			out[name] = key
		}
		return out
	}
	a, b := keys(), keys()
	for _, name := range []string{"cloud-controller", "attestation-server", "privacy-ca", serverName(0), "alice"} {
		switch {
		case len(a[name]) == 0 || len(b[name]) == 0:
			t.Errorf("no key for %s", name)
		case cryptoutil.KeyEqual(a[name], b[name]):
			t.Errorf("%s has one key in two testbeds built from seed 1", name)
		}
	}
}
