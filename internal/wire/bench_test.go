package wire

import (
	"crypto/rand"
	"testing"

	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/pca"
	"cloudmonatt/internal/trust"
)

// Ablation (DESIGN.md §5): the cost of the paper's per-session attestation
// keys (freshly minted and pCA-certified for every attestation, buying
// server anonymity) versus signing with one long-lived certified key.
// These benches measure the real crypto cost of each design on this
// machine.

func benchFixture(b *testing.B) (*trust.Module, *pca.PCA) {
	b.Helper()
	ca, err := pca.New("pca", rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	tm, err := trust.NewModule("server-1", 0, rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	ca.RegisterServer(tm.Name(), tm.IdentityKey())
	return tm, ca
}

// BenchmarkAblationPerSessionKeys: the full per-attestation path — mint a
// session key, certify it at the pCA, build and verify the evidence.
func BenchmarkAblationPerSessionKeys(b *testing.B) {
	tm, ca := benchFixture(b)
	req, ms := sampleMeasurements()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, csr, err := tm.NewSession()
		if err != nil {
			b.Fatal(err)
		}
		cert, err := ca.Certify(csr)
		if err != nil {
			b.Fatal(err)
		}
		sess.Cert = cert
		n3 := cryptoutil.MustNonce()
		ev := BuildEvidence(sess, "vm-1", req, ms, n3, "tpm")
		if err := VerifyEvidence(ev, ca.Name(), ca.PublicKey(), "vm-1", req, n3); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEvidence builds one realistic signed Evidence message — certified
// session key, two measurement kinds, platform quote — the message that
// crosses the attestation server's hot path once per appraisal.
func benchEvidence(b *testing.B) *Evidence {
	b.Helper()
	tm, ca := benchFixture(b)
	sess, csr, err := tm.NewSession()
	if err != nil {
		b.Fatal(err)
	}
	cert, err := ca.Certify(csr)
	if err != nil {
		b.Fatal(err)
	}
	sess.Cert = cert
	req, ms := sampleMeasurements()
	return BuildEvidence(sess, "vm-1", req, ms, cryptoutil.MustNonce(), "tpm")
}

// BenchmarkEvidenceEncodeBinary: the hand-rolled codec with a caller-reused
// buffer — the steady-state encode cost on the hot path. Must report
// 0 allocs/op (pinned by TestEvidenceEncodeAllocFree).
func BenchmarkEvidenceEncodeBinary(b *testing.B) {
	ev := benchEvidence(b)
	buf := ev.AppendWire(nil)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = ev.AppendWire(buf[:0])
	}
}

// BenchmarkEvidenceDecodeBinary decodes the binary form repeatedly.
func BenchmarkEvidenceDecodeBinary(b *testing.B) {
	ev := benchEvidence(b)
	data := ev.AppendWire(nil)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var m Evidence
		if err := m.DecodeWire(data); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEvidenceEncodeAllocFree pins the acceptance criterion as a test, not
// just a bench number: encoding Evidence into a reused buffer performs zero
// heap allocations.
func TestEvidenceEncodeAllocFree(t *testing.T) {
	tb := &testing.B{}
	ev := benchEvidence(tb)
	if tb.Failed() {
		t.Fatal("fixture construction failed")
	}
	buf := ev.AppendWire(nil)
	if allocs := testing.AllocsPerRun(100, func() {
		buf = ev.AppendWire(buf[:0])
	}); allocs != 0 {
		t.Fatalf("binary encode into reused buffer: %v allocs/op, want 0", allocs)
	}
}

// BenchmarkAblationLongLivedKey: the anonymity-free alternative — one
// session key certified once, reused for every attestation.
func BenchmarkAblationLongLivedKey(b *testing.B) {
	tm, ca := benchFixture(b)
	sess, csr, err := tm.NewSession()
	if err != nil {
		b.Fatal(err)
	}
	cert, err := ca.Certify(csr)
	if err != nil {
		b.Fatal(err)
	}
	sess.Cert = cert
	req, ms := sampleMeasurements()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n3 := cryptoutil.MustNonce()
		ev := BuildEvidence(sess, "vm-1", req, ms, n3, "tpm")
		if err := VerifyEvidence(ev, ca.Name(), ca.PublicKey(), "vm-1", req, n3); err != nil {
			b.Fatal(err)
		}
	}
}
