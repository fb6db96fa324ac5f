package cloudsim

import (
	"strings"
	"testing"
	"time"

	"cloudmonatt/internal/attestsrv"
	"cloudmonatt/internal/controller"
	"cloudmonatt/internal/ledger"
	"cloudmonatt/internal/oracle"
	"cloudmonatt/internal/properties"
)

// TestEvidenceLedgerEndToEnd runs a full attack-and-respond scenario and
// checks that every producer left its trace in the evidence ledger: the
// controller's launch decision, the appraiser's verdicts, the pCA's
// anonymous certificate issuances and the Response Module's remediation —
// and that the resulting chain survives an independent audit of the
// on-disk segments.
func TestEvidenceLedgerEndToEnd(t *testing.T) {
	dir := t.TempDir()
	tb := newTB(t, Options{Seed: 21, LedgerDir: dir})
	cu, err := tb.NewCustomer("alice")
	if err != nil {
		t.Fatal(err)
	}
	res := launch(t, cu, basicLaunch())
	tb.RunFor(time.Second)

	if v, err := cu.Attest(res.Vid, properties.RuntimeIntegrity); err != nil || !v.Healthy {
		t.Fatalf("clean attest: %v %v", v, err)
	}
	g, err := tb.GuestOf(res.Vid)
	if err != nil {
		t.Fatal(err)
	}
	g.InfectRootkit("stealth-miner")
	if v, err := cu.Attest(res.Vid, properties.RuntimeIntegrity); err != nil || v.Healthy {
		t.Fatalf("infected attest: %v %v", v, err)
	}

	// Launch decision, recorded by the controller.
	launches, err := tb.Ledger.Query(ledger.Filter{Kind: ledger.KindLaunch, Vid: res.Vid})
	if err != nil {
		t.Fatal(err)
	}
	if len(launches) != 1 {
		t.Fatalf("launch entries = %d", len(launches))
	}
	var ld controller.LaunchRecord
	if err := launches[0].Decode(&ld); err != nil {
		t.Fatal(err)
	}
	if !ld.OK || ld.Owner != "alice" || ld.Server != res.Server {
		t.Fatalf("launch record %+v", ld)
	}

	// Appraisals, recorded by the Attestation Server: the startup check at
	// launch plus the two runtime checks above.
	appr, err := tb.Ledger.Query(ledger.Filter{Kind: ledger.KindAppraisal, Vid: res.Vid})
	if err != nil {
		t.Fatal(err)
	}
	if len(appr) < 3 {
		t.Fatalf("appraisal entries = %d, want >= 3", len(appr))
	}
	last := appr[len(appr)-1]
	var ap attestsrv.AppraisalRecord
	if err := last.Decode(&ap); err != nil {
		t.Fatal(err)
	}
	if last.Prop != string(properties.RuntimeIntegrity) || ap.Healthy {
		t.Fatalf("final appraisal entry %+v: %+v", last, ap)
	}

	// Certificate issuances, recorded by the pCA — anonymously: no entry may
	// leak which server requested the session key (paper §3.4.2).
	certs, err := tb.Ledger.Query(ledger.Filter{Kind: ledger.KindCertIssue})
	if err != nil {
		t.Fatal(err)
	}
	if len(certs) == 0 {
		t.Fatal("no cert-issue entries")
	}
	for _, e := range certs {
		if e.Vid != "" || strings.Contains(string(e.Payload), res.Server) {
			t.Fatalf("cert-issue entry leaks placement: %+v", e)
		}
	}

	// The remediation (termination for runtime integrity).
	rems, err := tb.Ledger.Query(ledger.Filter{Kind: ledger.KindRemediation, Vid: res.Vid})
	if err != nil {
		t.Fatal(err)
	}
	if len(rems) != 1 {
		t.Fatalf("remediation entries %+v", rems)
	}
	var rem controller.RemediationRecord
	if err := rems[0].Decode(&rem); err != nil || rem.Response != string(controller.Terminate) {
		t.Fatalf("remediation record %+v (%v), want a termination", rem, err)
	}

	// The control plane's two-phase intents. That every begin was ended is
	// the oracle's to check, over every VM, when the test ends.
	ints, err := tb.Ledger.Query(ledger.Filter{Kind: ledger.KindIntent, Vid: res.Vid})
	if err != nil {
		t.Fatal(err)
	}

	// Querying by VM id alone interleaves all kinds for that VM, in order.
	byVM, err := tb.Ledger.Query(ledger.Filter{Vid: res.Vid})
	if err != nil {
		t.Fatal(err)
	}
	if len(byVM) != len(launches)+len(appr)+len(rems)+len(ints) {
		t.Fatalf("by-vid query = %d entries, want %d", len(byVM), len(launches)+len(appr)+len(rems)+len(ints))
	}
	for i := 1; i < len(byVM); i++ {
		if byVM[i].Seq <= byVM[i-1].Seq {
			t.Fatal("by-vid query out of order")
		}
	}

	// The chain verifies in-process and under an independent audit of the
	// directory, which opens the segments afresh, read-only, beside the
	// live writer.
	n, err := tb.Ledger.Verify()
	if err != nil {
		t.Fatal(err)
	}
	headSeq, headHash := tb.Ledger.Head()
	if uint64(n) != headSeq {
		t.Fatalf("verified %d entries, head seq %d", n, headSeq)
	}
	ro, err := ledger.Open(ledger.Options{Dir: dir, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if n, err := ro.Verify(); err != nil || uint64(n) != headSeq {
		t.Fatalf("audit verified %d entries (%v), head seq %d", n, err, headSeq)
	}
	if seq, hash := ro.Head(); seq != headSeq || hash != headHash {
		t.Fatalf("audit head (%d, %x) != live head (%d, %x)", seq, hash, headSeq, headHash)
	}
	// The auditor's claim checks hold on the reopen as they do in-process.
	for _, v := range oracle.CheckLedger(ro) {
		t.Errorf("audit: %s", v)
	}
}
