package wire

import (
	"crypto/rand"
	"testing"
	"time"

	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/pca"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/trust"
	"cloudmonatt/internal/trust/driver"
)

type fixture struct {
	ca     *pca.PCA
	tm     *trust.Module
	sess   *trust.Session
	attest *cryptoutil.Identity
	ctrl   *cryptoutil.Identity
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	ca, err := pca.New("pca", rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := trust.NewModule("server-1", 0, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ca.RegisterServer(tm.Name(), tm.IdentityKey())
	sess, req, err := tm.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	cert, err := ca.Certify(req)
	if err != nil {
		t.Fatal(err)
	}
	sess.Cert = cert
	return &fixture{
		ca:     ca,
		tm:     tm,
		sess:   sess,
		attest: cryptoutil.MustIdentity("attest-server"),
		ctrl:   cryptoutil.MustIdentity("controller"),
	}
}

func sampleMeasurements() (properties.Request, []properties.Measurement) {
	req, _ := driver.MapToMeasurements(driver.BackendTPM, properties.CPUAvailability)
	ms := []properties.Measurement{{
		Kind:     properties.KindCPUTime,
		CPUTime:  480 * time.Millisecond,
		WallTime: time.Second,
	}}
	return req, ms
}

func TestEvidenceRoundTrip(t *testing.T) {
	f := newFixture(t)
	req, ms := sampleMeasurements()
	n3 := cryptoutil.MustNonce()
	ev := BuildEvidence(f.sess, "vm-1", req, ms, n3, "tpm")
	if err := VerifyEvidence(ev, f.ca.Name(), f.ca.PublicKey(), "vm-1", req, n3); err != nil {
		t.Fatalf("genuine evidence rejected: %v", err)
	}
}

// startupMeasurements is the shape of a fresh server's startup evidence: a
// platform quote over five PCRs with its six-event log, and the image digest.
func startupMeasurements() (properties.Request, []properties.Measurement) {
	req, _ := driver.MapToMeasurements(driver.BackendTPM, properties.StartupIntegrity)
	quote := properties.Measurement{Kind: properties.KindPlatformQuote, QuoteSig: make([]byte, 64)}
	for i, name := range []string{"0:firmware", "1:hypervisor", "2:host-os", "3:platform-config", "8:vm-image-vm-0001", "8:vm-image-vm-0002"} {
		quote.LogNames = append(quote.LogNames, name)
		quote.LogSums = append(quote.LogSums, [32]byte{byte(i)})
	}
	for _, pcr := range []uint32{0, 1, 2, 3, 8} {
		quote.QuotePCR = append(quote.QuotePCR, pcr)
		quote.QuoteVal = append(quote.QuoteVal, [32]byte{byte(pcr)})
	}
	return req, []properties.Measurement{quote, {Kind: properties.KindImageDigest, Digest: [32]byte{9}}}
}

// TestEvidenceRoundTripAllocs pins what signing and checking one evidence
// allocates. Each side hashes the wire encoding of rM and M twice (Q3 and
// the signed body) and renders it once, into a buffer on its stack, and
// the hashes themselves allocate nothing: 3 allocations for the pair (the
// evidence, its AVK copy and signature), bound at 4. Rendering rM and M
// into heap buffers took 7, encoding per hash into grown buffers 89, and
// hashing through a heap digest 17.
func TestEvidenceRoundTripAllocs(t *testing.T) {
	f := newFixture(t)
	req, ms := startupMeasurements()
	n3 := cryptoutil.MustNonce()
	roundTrip := func() {
		ev := BuildEvidence(f.sess, "vm-1", req, ms, n3, "tpm")
		if err := VerifyEvidence(ev, f.ca.Name(), f.ca.PublicKey(), "vm-1", req, n3); err != nil {
			t.Fatalf("genuine evidence rejected: %v", err)
		}
	}
	roundTrip() // the certificate's signature is verified once, then remembered
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs > 4 {
		t.Fatalf("BuildEvidence + VerifyEvidence: %v allocs, want at most 4", allocs)
	}
}

// TestEvidenceVerifyAllocFree: checking an evidence whose AVK and pCA
// certificate were seen before renders rM and M on the stack and allocates
// nothing.
func TestEvidenceVerifyAllocFree(t *testing.T) {
	f := newFixture(t)
	req, ms := sampleMeasurements()
	n3 := cryptoutil.MustNonce()
	ev := BuildEvidence(f.sess, "vm-1", req, ms, n3, "tpm")
	verify := func() {
		if err := VerifyEvidence(ev, f.ca.Name(), f.ca.PublicKey(), "vm-1", req, n3); err != nil {
			t.Fatalf("genuine evidence rejected: %v", err)
		}
	}
	verify() // warms the key and certificate caches
	if allocs := testing.AllocsPerRun(100, verify); allocs != 0 {
		t.Fatalf("VerifyEvidence with warm caches: %v allocs, want 0", allocs)
	}
}

func TestEvidenceRejectsTampering(t *testing.T) {
	f := newFixture(t)
	req, ms := sampleMeasurements()
	n3 := cryptoutil.MustNonce()

	// Tampered measurement (attacker inflates the CPU time).
	ev := BuildEvidence(f.sess, "vm-1", req, ms, n3, "tpm")
	ev.Measurements[0].CPUTime = time.Second
	if err := VerifyEvidence(ev, f.ca.Name(), f.ca.PublicKey(), "vm-1", req, n3); err == nil {
		t.Fatal("tampered measurements accepted")
	}

	// Wrong VM.
	ev = BuildEvidence(f.sess, "vm-1", req, ms, n3, "tpm")
	if err := VerifyEvidence(ev, f.ca.Name(), f.ca.PublicKey(), "vm-2", req, n3); err == nil {
		t.Fatal("evidence accepted for the wrong VM")
	}

	// Replayed nonce.
	ev = BuildEvidence(f.sess, "vm-1", req, ms, n3, "tpm")
	if err := VerifyEvidence(ev, f.ca.Name(), f.ca.PublicKey(), "vm-1", req, cryptoutil.MustNonce()); err == nil {
		t.Fatal("evidence accepted with a stale nonce")
	}

	// Nil evidence.
	if err := VerifyEvidence(nil, f.ca.Name(), f.ca.PublicKey(), "vm-1", req, n3); err == nil {
		t.Fatal("nil evidence accepted")
	}
}

func TestEvidenceRejectsUncertifiedKey(t *testing.T) {
	f := newFixture(t)
	req, ms := sampleMeasurements()
	n3 := cryptoutil.MustNonce()
	// A session whose key was never certified by the pCA.
	sess, _, err := f.tm.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	sess.Cert = nil
	ev := BuildEvidence(sess, "vm-1", req, ms, n3, "tpm")
	if err := VerifyEvidence(ev, f.ca.Name(), f.ca.PublicKey(), "vm-1", req, n3); err == nil {
		t.Fatal("evidence with uncertified attestation key accepted")
	}
	// A certificate from the wrong CA.
	rogueCA, _ := pca.New("rogue-ca", rand.Reader)
	rogueCA.RegisterServer(f.tm.Name(), f.tm.IdentityKey())
	sess2, req2, _ := f.tm.NewSession()
	cert, err := rogueCA.Certify(req2)
	if err != nil {
		t.Fatal(err)
	}
	sess2.Cert = cert
	ev = BuildEvidence(sess2, "vm-1", req, ms, n3, "tpm")
	if err := VerifyEvidence(ev, f.ca.Name(), f.ca.PublicKey(), "vm-1", req, n3); err == nil {
		t.Fatal("evidence certified by a rogue CA accepted")
	}
}

func TestEvidenceKeySubstitution(t *testing.T) {
	// Attacker swaps in her own key and re-signs: the cert no longer covers
	// the key, so verification must fail.
	f := newFixture(t)
	req, ms := sampleMeasurements()
	n3 := cryptoutil.MustNonce()
	ev := BuildEvidence(f.sess, "vm-1", req, ms, n3, "tpm")
	mallory := cryptoutil.MustIdentity("mallory")
	ev.Measurements[0].CPUTime = 0
	ev.Q3 = ComputeQ3(ev.Vid, ev.Req, ev.Measurements, ev.N3)
	ev.AVK = mallory.Public()
	rM, m := appendReqMeasurements(nil, ev.Req, ev.Measurements)
	body := evidenceBody(ev, rM, m)
	ev.Sig = mallory.Sign(body[:])
	if err := VerifyEvidence(ev, f.ca.Name(), f.ca.PublicKey(), "vm-1", req, n3); err == nil {
		t.Fatal("key-substituted evidence accepted")
	}
}

func sampleVerdict() properties.Verdict {
	return properties.Verdict{Property: properties.CPUAvailability, Healthy: true, Reason: "ok"}
}

func TestReportRoundTrip(t *testing.T) {
	f := newFixture(t)
	n2 := cryptoutil.MustNonce()
	r := BuildReport(f.attest, "vm-1", "server-1", properties.CPUAvailability, sampleVerdict(), n2)
	if err := VerifyReport(r, f.attest.Public(), "vm-1", properties.CPUAvailability, n2); err != nil {
		t.Fatalf("genuine report rejected: %v", err)
	}
}

func TestReportRejectsVerdictFlip(t *testing.T) {
	f := newFixture(t)
	n2 := cryptoutil.MustNonce()
	v := properties.Verdict{Property: properties.CPUAvailability, Healthy: false, Reason: "starved"}
	r := BuildReport(f.attest, "vm-1", "server-1", properties.CPUAvailability, v, n2)
	r.Verdict.Healthy = true // the attack the customer cares about most
	if err := VerifyReport(r, f.attest.Public(), "vm-1", properties.CPUAvailability, n2); err == nil {
		t.Fatal("flipped verdict accepted")
	}
}

func TestReportRejectsWrongSigner(t *testing.T) {
	f := newFixture(t)
	n2 := cryptoutil.MustNonce()
	r := BuildReport(f.ctrl /* not the attestation server */, "vm-1", "server-1", properties.CPUAvailability, sampleVerdict(), n2)
	if err := VerifyReport(r, f.attest.Public(), "vm-1", properties.CPUAvailability, n2); err == nil {
		t.Fatal("report signed by the wrong party accepted")
	}
	if err := VerifyReport(nil, f.attest.Public(), "vm-1", properties.CPUAvailability, n2); err == nil {
		t.Fatal("nil report accepted")
	}
}

func TestCustomerReportRoundTrip(t *testing.T) {
	f := newFixture(t)
	n1 := cryptoutil.MustNonce()
	r := BuildCustomerReport(f.ctrl, "vm-1", properties.CPUAvailability, sampleVerdict(), n1)
	if err := VerifyCustomerReport(r, f.ctrl.Public(), "vm-1", properties.CPUAvailability, n1); err != nil {
		t.Fatalf("genuine customer report rejected: %v", err)
	}
}

func TestCustomerReportRejectsReplay(t *testing.T) {
	f := newFixture(t)
	n1 := cryptoutil.MustNonce()
	r := BuildCustomerReport(f.ctrl, "vm-1", properties.CPUAvailability, sampleVerdict(), n1)
	if err := VerifyCustomerReport(r, f.ctrl.Public(), "vm-1", properties.CPUAvailability, cryptoutil.MustNonce()); err == nil {
		t.Fatal("customer report accepted under a fresh nonce (replay)")
	}
	if err := VerifyCustomerReport(r, f.ctrl.Public(), "vm-1", properties.RuntimeIntegrity, n1); err == nil {
		t.Fatal("customer report accepted for the wrong property")
	}
}

// TestCustomerBatchBindsEveryVerdictInOrder: one signature covers the
// drain, so the batch verifies as built and fails once a verdict is
// dropped, reordered or changed, or under another N1, VM or property.
func TestCustomerBatchBindsEveryVerdictInOrder(t *testing.T) {
	f := newFixture(t)
	n1 := cryptoutil.MustNonce()
	unhealthy := sampleVerdict()
	unhealthy.Healthy, unhealthy.Reason = false, "rootkit"
	vs := []properties.Verdict{sampleVerdict(), unhealthy}
	build := func() *CustomerBatch {
		return BuildCustomerBatch(f.ctrl, "vm-1", properties.CPUAvailability, n1, append([]properties.Verdict(nil), vs...))
	}
	if err := VerifyCustomerBatch(build(), f.ctrl.Public(), "vm-1", properties.CPUAvailability, n1); err != nil {
		t.Fatalf("genuine batch rejected: %v", err)
	}
	for name, tamper := range map[string]func(b *CustomerBatch){
		"dropped":   func(b *CustomerBatch) { b.Verdicts = b.Verdicts[:1] },
		"reordered": func(b *CustomerBatch) { b.Verdicts[0], b.Verdicts[1] = b.Verdicts[1], b.Verdicts[0] },
		"flipped":   func(b *CustomerBatch) { b.Verdicts[1].Healthy = true },
		"emptied":   func(b *CustomerBatch) { b.Verdicts = nil },
	} {
		b := build()
		tamper(b)
		if err := VerifyCustomerBatch(b, f.ctrl.Public(), "vm-1", properties.CPUAvailability, n1); err == nil {
			t.Errorf("%s batch accepted", name)
		}
	}
	if err := VerifyCustomerBatch(build(), f.ctrl.Public(), "vm-1", properties.CPUAvailability, cryptoutil.MustNonce()); err == nil {
		t.Error("batch accepted under another N1")
	}
	if err := VerifyCustomerBatch(build(), f.ctrl.Public(), "vm-2", properties.CPUAvailability, n1); err == nil {
		t.Error("batch accepted for another VM")
	}
	if err := VerifyCustomerBatch(build(), f.attest.Public(), "vm-1", properties.CPUAvailability, n1); err == nil {
		t.Error("batch accepted under another key")
	}
	if err := VerifyCustomerBatch(nil, f.ctrl.Public(), "vm-1", properties.CPUAvailability, n1); err == nil {
		t.Error("nil batch accepted")
	}
}

func TestQuotesBindAllFields(t *testing.T) {
	req, ms := sampleMeasurements()
	n := cryptoutil.MustNonce()
	base := ComputeQ3("vm-1", req, ms, n)
	if ComputeQ3("vm-2", req, ms, n) == base {
		t.Fatal("Q3 ignores Vid")
	}
	ms2 := []properties.Measurement{{Kind: properties.KindCPUTime, CPUTime: 1}}
	if ComputeQ3("vm-1", req, ms2, n) == base {
		t.Fatal("Q3 ignores measurements")
	}
	v := sampleVerdict()
	q2 := ComputeQ2("vm-1", "srv", v.Property, v, n)
	if ComputeQ2("vm-1", "other", v.Property, v, n) == q2 {
		t.Fatal("Q2 ignores server ID")
	}
	q1 := ComputeQ1("vm-1", v.Property, v, n)
	v2 := v
	v2.Healthy = false
	if ComputeQ1("vm-1", v.Property, v2, n) == q1 {
		t.Fatal("Q1 ignores the verdict")
	}
}
