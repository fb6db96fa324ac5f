package cloudsim

import (
	"strings"
	"testing"
	"time"

	"cloudmonatt/internal/controller"
	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/guest"
	"cloudmonatt/internal/interpret"
	"cloudmonatt/internal/monitor"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/wire"
)

// bootChainSpec is a deployment-defined property p — guest kernel integrity
// via VM introspection of the guest boot chain, measured as kind — judged
// against the digests of a pristine guest's boot chain.
func bootChainSpec(p properties.Property, kind properties.MeasurementKind) interpret.Spec {
	golden := make(map[string][32]byte)
	for _, c := range guest.NewOS().BootChain() {
		golden[c.Name] = c.Digest()
	}
	return interpret.Spec{
		Property: p,
		Request:  properties.Request{Kinds: []properties.MeasurementKind{kind}},
		Collect: func(vm *monitor.VM, k properties.MeasurementKind, nonce [16]byte) (properties.Measurement, error) {
			m := properties.Measurement{Kind: k}
			for _, c := range vm.Guest.BootChain() {
				m.LogNames = append(m.LogNames, c.Name)
				m.LogSums = append(m.LogSums, c.Digest())
			}
			return m, nil
		},
		Interpret: func(ms []properties.Measurement, nonce cryptoutil.Nonce, refs interpret.References) properties.Verdict {
			m, ok := properties.Find(ms, kind)
			if !ok {
				return properties.Verdict{Property: p, Healthy: false, Reason: "missing boot chain measurement"}
			}
			for i, name := range m.LogNames {
				if want, known := golden[name]; !known || m.LogSums[i] != want {
					return properties.Verdict{Property: p, Healthy: false,
						Reason: "guest boot component modified", Details: map[string]string{"component": name}}
				}
			}
			return properties.Verdict{Property: p, Healthy: true, Reason: "guest boot chain matches known-good digests"}
		},
	}
}

// TestCustomPropertyEndToEnd exercises the paper's extensibility claim
// (§4: "the CloudMonatt architecture is flexible and allows the
// integration of an arbitrary number of security properties and monitoring
// mechanisms"): a deployment-defined fifth property, passed to the testbed
// as one value, flows through the full protocol, launch pipeline and
// response machinery without any change to the architecture.
func TestCustomPropertyEndToEnd(t *testing.T) {
	const propKernel properties.Property = "guest-kernel-integrity"
	tb := newTB(t, Options{Seed: 77, Properties: []interpret.Spec{bootChainSpec(propKernel, "guest-bootchain")}})
	cu, _ := tb.NewCustomer("alice")

	req := basicLaunch()
	req.Props = append(req.Props, propKernel)
	res := launch(t, cu, req)
	tb.RunFor(time.Second)

	// Clean guest: healthy.
	v, err := cu.Attest(res.Vid, propKernel)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Healthy {
		t.Fatalf("pristine guest kernel judged modified: %v", v)
	}

	// Tamper with the guest kernel; the custom property must catch it and
	// the default response (termination) must fire.
	g, err := tb.GuestOf(res.Vid)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.TamperBootChain("guest-kernel"); err != nil {
		t.Fatal(err)
	}
	v, err = cu.Attest(res.Vid, propKernel)
	if err != nil {
		t.Fatal(err)
	}
	if v.Healthy {
		t.Fatal("tampered guest kernel passed the custom property")
	}
	if !strings.Contains(v.Details["component"], "guest-kernel") {
		t.Fatalf("wrong component blamed: %v", v.Details)
	}
	events := tb.Ctrl.Events()
	if len(events) != 1 {
		t.Fatalf("expected one response, got %+v", events)
	}
	if st, _ := tb.Ctrl.VMState(res.Vid); st != "terminated" {
		t.Fatalf("VM state %q after failed custom-property attestation", st)
	}
}

// TestTwoTestbedsTwoCustomProperties runs two testbeds in one process, each
// with a custom property of its own: each attests its own and refuses the
// other's as unsupported, at launch and at its Attestation Server.
func TestTwoTestbedsTwoCustomProperties(t *testing.T) {
	specs := []interpret.Spec{
		bootChainSpec("kernel-integrity-a", "bootchain-a"),
		bootChainSpec("kernel-integrity-b", "bootchain-b"),
	}
	for i, own := range specs {
		other := specs[1-i].Property
		t.Run(string(own.Property), func(t *testing.T) {
			t.Parallel()
			tb := newTB(t, Options{Seed: int64(90 + i), Servers: 2, Properties: []interpret.Spec{own}})
			cu, err := tb.NewCustomer("alice")
			if err != nil {
				t.Fatal(err)
			}
			req := basicLaunch()
			req.Props = append(req.Props, own.Property)
			res := launch(t, cu, req)
			if v, err := cu.Attest(res.Vid, own.Property); err != nil || !v.Healthy {
				t.Fatalf("attesting %s: %v %v", own.Property, v, err)
			}

			req.Props = append(req.Props, other)
			if _, err := cu.Launch(req); err == nil || !strings.Contains(err.Error(), "unsupported property") {
				t.Fatalf("launch asking for %s: %v, want it refused as unsupported", other, err)
			}
			_, err = tb.Attest.Appraise(wire.AppraisalRequest{Vid: res.Vid, ServerID: res.Server, Prop: other, N2: cryptoutil.MustNonce()})
			if err == nil || !strings.Contains(err.Error(), "unsupported property") {
				t.Fatalf("appraising %s: %v, want it refused as unsupported", other, err)
			}
		})
	}
}

// Keep periodic monitoring following a migration (regression test for the
// rebind path).
func TestPeriodicFollowsMigration(t *testing.T) {
	tb := newTB(t, Options{Seed: 78, Servers: 2})
	cu, _ := tb.NewCustomer("alice")
	req := basicLaunch()
	req.Workload = "spinner"
	req.Pin = 1
	res := launch(t, cu, req)
	if err := cu.StartPeriodic(res.Vid, properties.CPUAvailability, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.LaunchCoResident(res.Server, "attack:cpu-starver", 1); err != nil {
		t.Fatal(err)
	}
	tb.RunFor(12 * time.Second) // detection + automatic migration
	if _, err := cu.FetchPeriodic(res.Vid, properties.CPUAvailability); err != nil {
		t.Fatal(err)
	}
	newServer, _ := tb.Ctrl.VMServer(res.Vid)
	if newServer == res.Server {
		t.Fatal("VM was not migrated")
	}
	// After migration, periodic results keep arriving and are healthy.
	tb.RunFor(15 * time.Second)
	vs, err := cu.FetchPeriodic(res.Vid, properties.CPUAvailability)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) == 0 {
		t.Fatal("no periodic results after migration (task not rebound)")
	}
	for _, v := range vs {
		if !v.Healthy {
			t.Fatalf("post-migration verdict unhealthy: %v", v)
		}
	}
}

// TestRFADetectedAndMigrated runs the Resource-Freeing Attack through the
// full cloud: the availability attestation flags the starved victim, the
// controller migrates it, and on the new host (fresh cache, no attacker)
// its CPU share recovers.
func TestRFADetectedAndMigrated(t *testing.T) {
	tb := newTB(t, Options{Seed: 79, Servers: 2})
	cu, _ := tb.NewCustomer("alice")
	req := basicLaunch()
	req.Workload = "cached-server"
	req.MinShare = 0.25
	req.Pin = 1
	res := launch(t, cu, req)
	srcServer := res.Server

	// Healthy while alone.
	tb.RunFor(time.Second)
	v, err := cu.Attest(res.Vid, properties.CPUAvailability)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Healthy {
		t.Fatalf("unattacked cached server failed availability: %v", v)
	}

	// The RFA attacker arrives on the same pCPU.
	if _, err := tb.LaunchCoResident(srcServer, "attack:rfa:"+res.Vid, 1); err != nil {
		t.Fatal(err)
	}
	tb.RunFor(2 * time.Second)
	v, err = cu.Attest(res.Vid, properties.CPUAvailability)
	if err != nil {
		t.Fatal(err)
	}
	if v.Healthy {
		t.Fatalf("RFA-starved victim judged healthy: %v", v)
	}
	newServer, _ := tb.Ctrl.VMServer(res.Vid)
	if newServer == srcServer {
		t.Fatal("victim not migrated off the attacked server")
	}

	// Fresh host, fresh cache, no attacker: availability recovers.
	tb.RunFor(2 * time.Second)
	v, err = cu.Attest(res.Vid, properties.CPUAvailability)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Healthy {
		t.Fatalf("migrated victim still starved: %v", v)
	}
}

// TestBusCovertChannelEndToEnd: the memory-bus covert channel flows
// through the full protocol and the confidentiality property flags it.
func TestBusCovertChannelEndToEnd(t *testing.T) {
	tb := newTB(t, Options{Seed: 80, Servers: 2})
	cu, _ := tb.NewCustomer("alice")
	req := basicLaunch()
	req.Workload = "attack:bus-covert-sender"
	req.Allowlist = nil
	req.Pin = 1
	res := launch(t, cu, req)
	tb.RunFor(500 * time.Millisecond)
	v, err := cu.Attest(res.Vid, properties.CovertChannelFreedom)
	if err != nil {
		t.Fatal(err)
	}
	if v.Healthy {
		t.Fatalf("bus covert channel not detected end to end: %v", v)
	}
	// The migration policy for confidentiality fires.
	events := tb.Ctrl.Events()
	if len(events) != 1 || events[0].Response != controller.Migrate {
		t.Fatalf("expected migration response, got %+v", events)
	}
}

// TestSuspensionRecheckLoop exercises §5.2's full Suspension semantics: a
// failing attestation suspends the VM; while the breach persists, rechecks
// re-suspend it; once the guest is cleaned, the recheck resumes it.
func TestSuspensionRecheckLoop(t *testing.T) {
	policy := controller.DefaultPolicy()
	policy[properties.RuntimeIntegrity] = controller.Suspend
	tb := newTB(t, Options{Seed: 81, Policy: policy})
	cu, _ := tb.NewCustomer("alice")
	res := launch(t, cu, basicLaunch())
	g, err := tb.GuestOf(res.Vid)
	if err != nil {
		t.Fatal(err)
	}
	rk := g.InfectRootkit("stealth-miner")
	if v, err := cu.Attest(res.Vid, properties.RuntimeIntegrity); err != nil || v.Healthy {
		t.Fatalf("infection not flagged: %v %v", v, err)
	}
	if st, _ := tb.Ctrl.VMState(res.Vid); st != "suspended" {
		t.Fatalf("state %q after failing attestation", st)
	}

	// First recheck: the rootkit is still there → back to suspended.
	v, resumed, err := tb.Ctrl.RecheckAndResume(res.Vid)
	if err != nil {
		t.Fatal(err)
	}
	if resumed || v.Healthy {
		t.Fatalf("recheck resumed a still-infected VM: %v", v)
	}
	if st, _ := tb.Ctrl.VMState(res.Vid); st != "suspended" {
		t.Fatalf("state %q after failing recheck", st)
	}

	// The operator removes the rootkit; the next recheck resumes the VM.
	if err := g.Kill(rk.PID); err != nil {
		t.Fatal(err)
	}
	v, resumed, err = tb.Ctrl.RecheckAndResume(res.Vid)
	if err != nil {
		t.Fatal(err)
	}
	if !resumed || !v.Healthy {
		t.Fatalf("recheck did not resume a clean VM: %v", v)
	}
	if st, _ := tb.Ctrl.VMState(res.Vid); st != "active" {
		t.Fatalf("state %q after healthy recheck", st)
	}
	// Rechecking an active VM is an error.
	if _, _, err := tb.Ctrl.RecheckAndResume(res.Vid); err == nil {
		t.Fatal("recheck of an active VM succeeded")
	}
}

// TestMultipleAttestationServers exercises §3.2.3's scalability claim:
// VMs shard across Attestation Servers by ring ownership of the VM id;
// attestation, periodic monitoring and migration all route to the VM's
// owning shard, wherever the VM is hosted.
func TestMultipleAttestationServers(t *testing.T) {
	tb := newTB(t, Options{Seed: 82, Servers: 4, Shards: 2})
	if len(tb.AttestServers) != 2 {
		t.Fatalf("attestation servers: %d", len(tb.AttestServers))
	}
	cu, _ := tb.NewCustomer("alice")

	// Launch until both shards own VMs.
	second := tb.AttestServers[1].Shard()
	owned := map[string][]string{}
	req := basicLaunch()
	req.Flavor = "small"
	for i := 0; i < 8; i++ {
		res := launch(t, cu, req)
		owner, _, _ := tb.Ring.Lookup(res.Vid)
		owned[owner] = append(owned[owner], res.Vid)
	}
	if len(owned) != 2 {
		t.Fatalf("VMs not spread over both shards: %v", owned)
	}
	tb.RunFor(time.Second)

	// Every VM attests healthy through its owning shard.
	for _, vs := range owned {
		for _, vid := range vs {
			v, err := cu.Attest(vid, properties.RuntimeIntegrity)
			if err != nil {
				t.Fatalf("%s: %v", vid, err)
			}
			if !v.Healthy {
				t.Fatalf("%s unhealthy: %v", vid, v)
			}
		}
	}
	// Both appraisers did real work (launch startup attestations at least).
	for i, as := range tb.AttestServers {
		if as.Metrics().Summary("appraise/"+string(properties.StartupIntegrity)).Snapshot().Count == 0 {
			t.Fatalf("attestation server %d appraised nothing", i)
		}
	}

	// Periodic monitoring works for a VM the second shard owns.
	vid := owned[second][0]
	if err := cu.StartPeriodic(vid, properties.CPUAvailability, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	tb.RunFor(12 * time.Second)
	vs, err := cu.FetchPeriodic(vid, properties.CPUAvailability)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) == 0 {
		t.Fatal("no periodic results from the second shard")
	}

	// Migration may cross to any qualified host: ownership hashes the VM
	// id, so the owning shard is unchanged and the stream keeps running.
	srcName, _ := tb.Ctrl.VMServer(vid)
	dest, err := tb.Ctrl.MigrateVM(vid)
	if err != nil {
		t.Fatal(err)
	}
	if dest == srcName {
		t.Fatalf("migration stayed on %s", srcName)
	}
	if owner, _, _ := tb.Ring.Lookup(vid); owner != second {
		t.Fatalf("migration moved ownership of %s to %s", vid, owner)
	}
	if keys := shardTaskKeys(t, tb); keys[vid+"|"+string(properties.CPUAvailability)] != second {
		t.Fatalf("periodic stream of %s not on %s after migration: %v", vid, second, keys)
	}
	tb.RunFor(12 * time.Second)
	if vs, err := cu.FetchPeriodic(vid, properties.CPUAvailability); err != nil || len(vs) == 0 {
		t.Fatalf("stream interrupted by migration: %d verdicts, err=%v", len(vs), err)
	}
	// And the VM still attests at its new home.
	if v, err := cu.Attest(vid, properties.RuntimeIntegrity); err != nil || !v.Healthy {
		t.Fatalf("post-migration attest: %v %v", v, err)
	}
}
