package cloudsim

import (
	"strings"
	"testing"
	"time"

	"cloudmonatt/internal/attestsrv"
	"cloudmonatt/internal/controller"
	"cloudmonatt/internal/ledger"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/trust/driver"
)

// mixedFleet assigns one backend per server: cloud-server-1 = tpm,
// cloud-server-2 = vtpm, cloud-server-3 = sev-snp.
func mixedFleet(extra Options) Options {
	extra.Servers = 3
	extra.Backends = []driver.Backend{driver.BackendTPM, driver.BackendVTPM, driver.BackendSEVSNP}
	return extra
}

// pinnedLaunch requests explicit placement on a named server — how the
// mixed-fleet scenarios position a VM on a backend that cannot attest
// every requested property.
func pinnedLaunch(server string, props ...properties.Property) controller.LaunchRequest {
	req := basicLaunch()
	req.Server = server
	req.Props = props
	return req
}

// TestMixedFleetAppraisal runs one cloud with three trust backends and
// checks that the same property appraises healthy on a backend that can
// evidence it and unattestable (the paper's V_fail) on one that cannot —
// with the backend type recorded end to end: verdicts, ledger entries and
// trace annotations.
func TestMixedFleetAppraisal(t *testing.T) {
	tb := newTB(t, mixedFleet(Options{Seed: 41}))
	cu, err := tb.NewCustomer("alice")
	if err != nil {
		t.Fatal(err)
	}

	// Covert-channel freedom needs the Trust Evidence Registers: attestable
	// on the tpm server, not on the vtpm server.
	onTPM := launch(t, cu, pinnedLaunch("cloud-server-1", properties.CovertChannelFreedom))
	onVTPM := launch(t, cu, pinnedLaunch("cloud-server-2", properties.RuntimeIntegrity, properties.CovertChannelFreedom))
	// Runtime integrity needs VM introspection: defeated by SNP memory
	// encryption, so unattestable on the sev-snp server.
	onSNP := launch(t, cu, pinnedLaunch("cloud-server-3", properties.RuntimeIntegrity, properties.CovertChannelFreedom))
	if v := onSNP.Verdict; !v.Healthy || v.Backend != "sev-snp" {
		t.Fatalf("sev-snp startup verdict: healthy=%v backend=%q", v.Healthy, v.Backend)
	}
	tb.RunFor(time.Second)

	v, err := cu.Attest(onTPM.Vid, properties.CovertChannelFreedom)
	if err != nil || !v.Healthy || v.Unattestable || v.Backend != "tpm" {
		t.Fatalf("covert freedom on tpm: %+v, %v", v, err)
	}
	v, err = cu.Attest(onVTPM.Vid, properties.CovertChannelFreedom)
	if err != nil {
		t.Fatal(err)
	}
	if v.Healthy || !v.Unattestable || v.Backend != "vtpm" {
		t.Fatalf("covert freedom on vtpm should be V_fail: %+v", v)
	}
	if !strings.Contains(v.Reason, "not attestable") {
		t.Fatalf("unattestable reason: %q", v.Reason)
	}
	// The same VM's other property is attestable: V_fail is per property
	// per backend, not per server.
	v, err = cu.Attest(onVTPM.Vid, properties.RuntimeIntegrity)
	if err != nil || !v.Healthy || v.Backend != "vtpm" {
		t.Fatalf("runtime integrity on vtpm: %+v, %v", v, err)
	}
	v, err = cu.Attest(onSNP.Vid, properties.RuntimeIntegrity)
	if err != nil {
		t.Fatal(err)
	}
	if v.Healthy || !v.Unattestable || v.Backend != "sev-snp" {
		t.Fatalf("runtime integrity on sev-snp should be V_fail: %+v", v)
	}
	v, err = cu.Attest(onSNP.Vid, properties.CovertChannelFreedom)
	if err != nil || !v.Healthy || v.Backend != "sev-snp" {
		t.Fatalf("covert freedom on sev-snp: %+v, %v", v, err)
	}

	// V_fail is a capability statement, not a compromise: the Response
	// Module must not have remediated either VM.
	for _, vid := range []string{onVTPM.Vid, onSNP.Vid} {
		if st, err := tb.Ctrl.VMState(vid); err != nil || st != "active" {
			t.Fatalf("VM %s after unattestable verdict: state=%q err=%v", vid, st, err)
		}
		rem, err := tb.Ledger.Query(ledger.Filter{Kind: ledger.KindRemediation, Vid: vid})
		if err != nil {
			t.Fatal(err)
		}
		if len(rem) != 0 {
			t.Fatalf("unattestable verdict triggered remediation: entry %+v", rem[0])
		}
	}

	// The appraisal ledger entry carries the backend and the V_fail marker,
	// and its trace's appraisal span is annotated with the backend.
	appr, err := tb.Ledger.Query(ledger.Filter{
		Kind: ledger.KindAppraisal, Vid: onVTPM.Vid, Prop: string(properties.CovertChannelFreedom),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(appr) != 1 {
		t.Fatalf("covert appraisal entries for %s = %d", onVTPM.Vid, len(appr))
	}
	var ap attestsrv.AppraisalRecord
	if err := appr[0].Decode(&ap); err != nil {
		t.Fatal(err)
	}
	if ap.Backend != "vtpm" || ap.Healthy || !ap.Unattestable {
		t.Fatalf("appraisal record %+v", ap)
	}
	annotated := false
	for _, sp := range tb.Obs.Spans(appr[0].Trace) {
		for _, note := range sp.Notes {
			if note.Key == "backend" && note.Value == "vtpm" {
				annotated = true
			}
		}
	}
	if !annotated {
		t.Fatalf("no span in trace %s carries the backend annotation", appr[0].Trace)
	}

	// The launch ledger entries name each VM's backend.
	for vid, backend := range map[string]string{onTPM.Vid: "tpm", onVTPM.Vid: "vtpm", onSNP.Vid: "sev-snp"} {
		entries, err := tb.Ledger.Query(ledger.Filter{Kind: ledger.KindLaunch, Vid: vid})
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 {
			t.Fatalf("launch entries for %s: %d", vid, len(entries))
		}
		var ld controller.LaunchRecord
		if err := entries[0].Decode(&ld); err != nil || ld.Backend != backend {
			t.Fatalf("launch entry for %s (%s): %+v (%v)", vid, backend, ld, err)
		}
	}
}

// TestMixedFleetScheduler checks the property filter against the
// capability DB: without explicit placement, a request for a property only
// some backends can attest never schedules onto a backend that cannot.
func TestMixedFleetScheduler(t *testing.T) {
	tb := newTB(t, mixedFleet(Options{Seed: 42}))
	cu, err := tb.NewCustomer("alice")
	if err != nil {
		t.Fatal(err)
	}
	req := basicLaunch()
	req.Props = []properties.Property{properties.RuntimeIntegrity, properties.CPUAvailability}
	// Only the tpm server supports both (vtpm lacks cpu-availability,
	// sev-snp lacks runtime-integrity).
	for i := 0; i < 3; i++ {
		res := launch(t, cu, req)
		if res.Server != "cloud-server-1" {
			t.Fatalf("launch %d placed on %s, want the tpm server", i, res.Server)
		}
	}
	// A request for every property has no qualified server beyond the tpm
	// one; once it is full the launch is rejected, not misplaced.
	full := basicLaunch()
	full.Props = properties.All
	full.Flavor = "large"
	for {
		res, err := cu.Launch(full)
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK {
			if !strings.Contains(res.Reason, "no qualified server") {
				t.Fatalf("rejection reason: %q", res.Reason)
			}
			break
		}
		if res.Server != "cloud-server-1" {
			t.Fatalf("all-property launch placed on %s", res.Server)
		}
	}
}

// TestRollbackRejectedAtLaunch is the stale-firmware scenario end to end:
// a sev-snp server whose platform security version was rolled back
// produces a correct launch measurement, yet the startup appraisal at
// launch fails on platform version, the launch is rejected, and the
// evidence ledger records the platform failure with the backend type.
func TestRollbackRejectedAtLaunch(t *testing.T) {
	tb := newTB(t, mixedFleet(Options{
		Seed:          43,
		StaleFirmware: map[string]bool{"cloud-server-3": true},
	}))
	cu, err := tb.NewCustomer("alice")
	if err != nil {
		t.Fatal(err)
	}
	res, err := cu.Launch(pinnedLaunch("cloud-server-3", properties.CovertChannelFreedom))
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("launch on a rolled-back platform succeeded")
	}
	if !strings.Contains(res.Reason, "platform security version") || !strings.Contains(res.Reason, "rollback") {
		t.Fatalf("rejection reason: %q", res.Reason)
	}

	appr, err := tb.Ledger.Query(ledger.Filter{Kind: ledger.KindAppraisal, Vid: res.Vid})
	if err != nil {
		t.Fatal(err)
	}
	if len(appr) != 1 {
		t.Fatalf("appraisal entries = %d", len(appr))
	}
	var ap attestsrv.AppraisalRecord
	if err := appr[0].Decode(&ap); err != nil {
		t.Fatal(err)
	}
	if ap.Healthy || ap.Class != string(properties.FailurePlatform) || ap.Backend != "sev-snp" {
		t.Fatalf("rollback appraisal record %+v", ap)
	}

	// The same server under a verifier floor lowered to its stale version
	// launches fine: the rejection above was the policy comparison, not a
	// broken measurement chain.
	tb2 := newTB(t, mixedFleet(Options{
		Seed:          44,
		StaleFirmware: map[string]bool{"cloud-server-3": true},
		MinTCB:        driver.TCBVersion{Bootloader: 3, TEE: 1, SNP: 8, Microcode: 170},
	}))
	cu2, err := tb2.NewCustomer("bob")
	if err != nil {
		t.Fatal(err)
	}
	res2 := launch(t, cu2, pinnedLaunch("cloud-server-3", properties.CovertChannelFreedom))
	if !res2.Verdict.Healthy || res2.Verdict.Backend != "sev-snp" {
		t.Fatalf("lowered-floor launch verdict: %+v", res2.Verdict)
	}
}

// TestExplicitPlacementCapacity: explicit placement bypasses the property
// filter but never capacity.
func TestExplicitPlacementCapacity(t *testing.T) {
	tb := newTB(t, mixedFleet(Options{Seed: 45}))
	cu, err := tb.NewCustomer("alice")
	if err != nil {
		t.Fatal(err)
	}
	req := pinnedLaunch("cloud-server-2", properties.RuntimeIntegrity)
	req.Flavor = "large"
	for {
		res, err := cu.Launch(req)
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK {
			if !strings.Contains(res.Reason, "unknown or lacks capacity") {
				t.Fatalf("rejection reason: %q", res.Reason)
			}
			break
		}
		if res.Server != "cloud-server-2" {
			t.Fatalf("pinned launch placed on %s", res.Server)
		}
	}
	res, err := cu.Launch(pinnedLaunch("no-such-server", properties.RuntimeIntegrity))
	if err != nil {
		t.Fatal(err)
	}
	if res.OK || !strings.Contains(res.Reason, "unknown or lacks capacity") {
		t.Fatalf("unknown-server launch: ok=%v reason=%q", res.OK, res.Reason)
	}
}
