// Package wire defines the CloudMonatt attestation protocol messages and
// the quote/signature chain of Fig. 3:
//
//	customer  → controller : (Vid, P, N1)                       over Kx
//	controller→ attest srv : (Vid, I, P, N2)                    over Ky
//	attest srv→ cloud srv  : (Vid, rM, N3)                      over Kz
//	cloud srv → attest srv : [Vid, rM, M, N3, Q3]_ASKs          over Kz
//	attest srv→ controller : [Vid, I, P, R, N2, Q2]_SKa         over Ky
//	controller→ customer   : [Vid, P, R, N1, Q1]_SKc            over Kx
//
// with Q3 = H(Vid‖rM‖M‖N3), Q2 = H(Vid‖I‖P‖R‖N2), Q1 = H(Vid‖P‖R‖N1).
// A periodic drain crosses hops 5 and 6 as one message each, signed once
// over every verdict it carries (attestsrv.PeriodicBatch, CustomerBatch).
// The session-key encryption (Kx/Ky/Kz) is provided by internal/secchan;
// this package provides the payload structures, the quote computations and
// the signature construction/verification for each signed hop.
package wire

import (
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/pca"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/trust"
)

// --- customer → controller (Table 1 APIs) ---

// AttestRequest invokes startup_attest_current or runtime_attest_current.
// Trace is the customer-minted trace ID (obs.MintTrace over N1); it is a
// transport header, not part of the signed protocol content, so tampering
// with it can corrupt telemetry but never a verdict.
type AttestRequest struct {
	Vid   string
	Prop  properties.Property
	N1    cryptoutil.Nonce
	Trace string
}

// PeriodicRequest invokes runtime_attest_periodic, with a constant
// frequency or — when Random is set — random intervals around it (Table 1).
type PeriodicRequest struct {
	Vid    string
	Prop   properties.Property
	Freq   time.Duration
	Random bool
	N1     cryptoutil.Nonce
	Trace  string
}

// StopPeriodicRequest invokes stop_attest_periodic. It has AttestRequest's
// fields, and its codec under its own tag.
type StopPeriodicRequest AttestRequest

// --- controller → attestation server ---

// AppraisalRequest asks the Attestation Server to attest VM Vid on cloud
// server I for property P.
type AppraisalRequest struct {
	Vid      string
	ServerID string
	Prop     properties.Property
	N2       cryptoutil.Nonce
}

// --- attestation server → cloud server ---

// MeasureRequest asks the cloud server's Attestation Client for the
// measurements rM backing a property. LogFrom is how many events of the
// server's measurement log the verifier has replayed already and need not be
// sent again. It is a hint and on purpose outside rM and Q3: the verifier
// replays whatever events come back on top of what it remembers and believes
// only a replay that lands on the quoted PCR values, so nothing it concludes
// rests on the server having honoured the field.
type MeasureRequest struct {
	Vid     string
	Req     properties.Request
	N3      cryptoutil.Nonce
	LogFrom uint32
}

// --- cloud server → attestation server ---

// Evidence is the cloud server's signed measurement report:
// [Vid, rM, M, N3, Q3]_ASKs plus the pCA certificate for AVKs. Backend
// names the trust backend that rooted the measurements ("tpm", "vtpm",
// "sev-snp"); it is bound by the evidence signature, so the appraiser can
// cross-check it against the server's provisioned backend type.
type Evidence struct {
	Vid          string
	Req          properties.Request
	Measurements []properties.Measurement
	N3           cryptoutil.Nonce
	Q3           [32]byte
	Backend      string
	AVK          []byte
	Cert         *cryptoutil.Certificate
	Sig          []byte
}

// evidenceStack sizes the stack buffer rM and M are rendered into for the
// evidence's quote and signed body; a server's first startup evidence,
// which ships its whole measurement log, spills to the heap.
const evidenceStack = 1024

// ComputeQ3 computes Q3 = H(Vid‖rM‖M‖N3).
func ComputeQ3(vid string, req properties.Request, ms []properties.Measurement, n3 cryptoutil.Nonce) [32]byte {
	var buf [evidenceStack]byte
	rM, m := appendReqMeasurements(buf[:0], req, ms)
	return computeQ3(vid, rM, m, n3)
}

// appendReqMeasurements renders rM and M in their wire encoding into b and
// returns the two, so that building or verifying an evidence renders them
// once for both hashes.
func appendReqMeasurements(b []byte, req properties.Request, ms []properties.Measurement) (rM, m []byte) {
	b = req.AppendWire(b)
	n := len(b)
	b = properties.AppendWireAll(b, ms)
	return b[:n], b[n:]
}

func computeQ3(vid string, rM, m []byte, n3 cryptoutil.Nonce) [32]byte {
	return cryptoutil.Hash("Q3", []byte(vid), rM, m, n3[:])
}

func evidenceBody(e *Evidence, rM, m []byte) [32]byte {
	return cryptoutil.Hash("evidence", []byte(e.Vid), rM, m, e.N3[:], e.Q3[:], []byte(e.Backend), e.AVK)
}

// BuildEvidence assembles and signs the evidence with the Trust Module's
// session attestation key. backend names the trust backend that rooted the
// measurements.
func BuildEvidence(sess *trust.Session, vid string, req properties.Request, ms []properties.Measurement, n3 cryptoutil.Nonce, backend string) *Evidence {
	var buf [evidenceStack]byte
	rM, m := appendReqMeasurements(buf[:0], req, ms)
	e := &Evidence{
		Vid:          vid,
		Req:          req,
		Measurements: ms,
		N3:           n3,
		Q3:           computeQ3(vid, rM, m, n3),
		Backend:      backend,
		AVK:          append([]byte(nil), sess.Public()...),
		Cert:         sess.Cert,
	}
	body := evidenceBody(e, rM, m)
	e.Sig = sess.Sign(body[:])
	return e
}

// VerifyEvidence checks the evidence end to end: the pCA certificate covers
// the session key, the signature verifies under it, the nonce is ours, and
// the quote matches the content.
func VerifyEvidence(e *Evidence, caName string, caKey ed25519.PublicKey, vid string, req properties.Request, n3 cryptoutil.Nonce) error {
	if e == nil {
		return errors.New("wire: nil evidence")
	}
	if e.Vid != vid {
		return fmt.Errorf("wire: evidence for VM %q, requested %q", e.Vid, vid)
	}
	if e.N3 != n3 {
		return errors.New("wire: evidence nonce mismatch (replay?)")
	}
	if err := pca.VerifyAttestationCert(e.Cert, caName, caKey, ed25519.PublicKey(e.AVK)); err != nil {
		return fmt.Errorf("wire: attestation key not certified: %w", err)
	}
	var buf [evidenceStack]byte
	rM, m := appendReqMeasurements(buf[:0], e.Req, e.Measurements)
	if body := evidenceBody(e, rM, m); !cryptoutil.Verify(ed25519.PublicKey(e.AVK), body[:], e.Sig) {
		return errors.New("wire: evidence signature invalid")
	}
	want3 := computeQ3(e.Vid, rM, m, e.N3)
	if !cryptoutil.ConstEqual(e.Q3[:], want3[:]) {
		return errors.New("wire: evidence quote Q3 mismatch")
	}
	return nil
}

// --- attestation server → controller ---

// Report is the appraised attestation result for the controller:
// [Vid, I, P, R, N2, Q2]_SKa.
type Report struct {
	Vid      string
	ServerID string
	Prop     properties.Property
	Verdict  properties.Verdict
	N2       cryptoutil.Nonce
	Q2       [32]byte
	Sig      []byte
}

// verdictStack sizes the stack buffer a verdict is rendered into for its
// quote and signed body; a longer reason spills to the heap.
const verdictStack = 256

// ComputeQ2 computes Q2 = H(Vid‖I‖P‖R‖N2).
func ComputeQ2(vid, serverID string, p properties.Property, v properties.Verdict, n2 cryptoutil.Nonce) [32]byte {
	var buf [verdictStack]byte
	return computeQ2(vid, serverID, p, v.AppendEncode(buf[:0]), n2)
}

// computeQ2 and reportBody take R in its canonical rendering, so that
// building or verifying a report renders the verdict once for both hashes.
func computeQ2(vid, serverID string, p properties.Property, verdict []byte, n2 cryptoutil.Nonce) [32]byte {
	return cryptoutil.Hash("Q2", []byte(vid), []byte(serverID), []byte(p), verdict, n2[:])
}

func reportBody(r *Report, verdict []byte) [32]byte {
	return cryptoutil.Hash("report",
		[]byte(r.Vid), []byte(r.ServerID), []byte(r.Prop), verdict, r.N2[:], r.Q2[:])
}

// BuildReport assembles and signs the report with the Attestation Server's
// identity key SKa.
func BuildReport(signer *cryptoutil.Identity, vid, serverID string, p properties.Property, v properties.Verdict, n2 cryptoutil.Nonce) *Report {
	var buf [verdictStack]byte
	verdict := v.AppendEncode(buf[:0])
	r := &Report{
		Vid:      vid,
		ServerID: serverID,
		Prop:     p,
		Verdict:  v,
		N2:       n2,
		Q2:       computeQ2(vid, serverID, p, verdict, n2),
	}
	body := reportBody(r, verdict)
	r.Sig = signer.Sign(body[:])
	return r
}

// VerifyReport checks the report signature, nonce binding and quote.
func VerifyReport(r *Report, attestKey ed25519.PublicKey, vid string, p properties.Property, n2 cryptoutil.Nonce) error {
	if r == nil {
		return errors.New("wire: nil report")
	}
	if r.Vid != vid || r.Prop != p {
		return errors.New("wire: report does not match the request")
	}
	if r.N2 != n2 {
		return errors.New("wire: report nonce mismatch (replay?)")
	}
	var buf [verdictStack]byte
	verdict := r.Verdict.AppendEncode(buf[:0])
	if body := reportBody(r, verdict); !cryptoutil.Verify(attestKey, body[:], r.Sig) {
		return errors.New("wire: report signature invalid")
	}
	want2 := computeQ2(r.Vid, r.ServerID, r.Prop, verdict, r.N2)
	if !cryptoutil.ConstEqual(r.Q2[:], want2[:]) {
		return errors.New("wire: report quote Q2 mismatch")
	}
	return nil
}

// --- controller → customer ---

// CustomerReport is the final attestation result: [Vid, P, R, N1, Q1]_SKc.
// Stale and Age cover graceful degradation: when the attestation
// infrastructure is unreachable, the controller re-signs the last-known-good
// verdict flagged stale, with its age, so the customer can decide whether
// cached assurance is acceptable. Both fields are bound by the signature.
type CustomerReport struct {
	Vid     string
	Prop    properties.Property
	Verdict properties.Verdict
	N1      cryptoutil.Nonce
	Q1      [32]byte
	Stale   bool
	Age     time.Duration
	Sig     []byte
}

// ComputeQ1 computes Q1 = H(Vid‖P‖R‖N1).
func ComputeQ1(vid string, p properties.Property, v properties.Verdict, n1 cryptoutil.Nonce) [32]byte {
	var buf [verdictStack]byte
	return computeQ1(vid, p, v.AppendEncode(buf[:0]), n1)
}

// computeQ1 and customerReportBody take R in its canonical rendering (see
// computeQ2).
func computeQ1(vid string, p properties.Property, verdict []byte, n1 cryptoutil.Nonce) [32]byte {
	return cryptoutil.Hash("Q1", []byte(vid), []byte(p), verdict, n1[:])
}

func customerReportBody(r *CustomerReport, verdict []byte) [32]byte {
	var staleness [9]byte
	if r.Stale {
		staleness[0] = 1
	}
	binary.BigEndian.PutUint64(staleness[1:], uint64(r.Age))
	return cryptoutil.Hash("customer-report",
		[]byte(r.Vid), []byte(r.Prop), verdict, r.N1[:], r.Q1[:], staleness[:])
}

// BuildCustomerReport assembles and signs the final report with the Cloud
// Controller's identity key SKc.
func BuildCustomerReport(signer *cryptoutil.Identity, vid string, p properties.Property, v properties.Verdict, n1 cryptoutil.Nonce) *CustomerReport {
	return signCustomerReport(signer, &CustomerReport{Vid: vid, Prop: p, Verdict: v, N1: n1})
}

// BuildStaleCustomerReport signs a degraded report: the last-known-good
// verdict, marked stale with its age at signing time. The customer's fresh
// N1 is still bound in, so the report cannot be replayed for a later query.
func BuildStaleCustomerReport(signer *cryptoutil.Identity, vid string, p properties.Property, v properties.Verdict, n1 cryptoutil.Nonce, age time.Duration) *CustomerReport {
	return signCustomerReport(signer, &CustomerReport{Vid: vid, Prop: p, Verdict: v, N1: n1, Stale: true, Age: age})
}

// signCustomerReport fills in r's Q1 and signature.
func signCustomerReport(signer *cryptoutil.Identity, r *CustomerReport) *CustomerReport {
	var buf [verdictStack]byte
	verdict := r.Verdict.AppendEncode(buf[:0])
	r.Q1 = computeQ1(r.Vid, r.Prop, verdict, r.N1)
	body := customerReportBody(r, verdict)
	r.Sig = signer.Sign(body[:])
	return r
}

// VerifyCustomerReport is the customer's final check: the controller's
// signature, the nonce it chose, and the quote over the report content.
func VerifyCustomerReport(r *CustomerReport, controllerKey ed25519.PublicKey, vid string, p properties.Property, n1 cryptoutil.Nonce) error {
	if r == nil {
		return errors.New("wire: nil customer report")
	}
	if r.Vid != vid || r.Prop != p {
		return errors.New("wire: customer report does not match the request")
	}
	if r.N1 != n1 {
		return errors.New("wire: customer report nonce mismatch (replay?)")
	}
	var buf [verdictStack]byte
	verdict := r.Verdict.AppendEncode(buf[:0])
	if body := customerReportBody(r, verdict); !cryptoutil.Verify(controllerKey, body[:], r.Sig) {
		return errors.New("wire: customer report signature invalid")
	}
	want1 := computeQ1(r.Vid, r.Prop, verdict, r.N1)
	if !cryptoutil.ConstEqual(r.Q1[:], want1[:]) {
		return errors.New("wire: customer report quote Q1 mismatch")
	}
	return nil
}

// --- controller → customer, one periodic drain ---

// CustomerBatch is the reply of fetch_attest_periodic and
// stop_attest_periodic: every verdict drained since the last one, signed
// once as [Vid, P, N1, R_1…R_k, Q1]_SKc with Q1 = H(Vid‖P‖N1‖R_1…R_k).
// The signature covers the verdicts' count and order, so whoever holds the
// channel key can neither drop nor reorder one. An empty drain is signed
// too.
type CustomerBatch struct {
	Vid      string
	Prop     properties.Property
	N1       cryptoutil.Nonce
	Verdicts []properties.Verdict
	Q1       [32]byte
	Sig      []byte
}

// BatchStack sizes the stack buffer a drain's entries are rendered into
// for its signed body; a longer drain spills to the heap.
const BatchStack = 1024

// appendVerdicts renders a drain's verdicts in order: their count, then
// each in its canonical rendering (see ComputeQ2).
func appendVerdicts(out []byte, vs []properties.Verdict) []byte {
	out = binary.BigEndian.AppendUint32(out, uint32(len(vs)))
	for i := range vs {
		out = vs[i].AppendEncode(out)
	}
	return out
}

func computeBatchQ1(vid string, p properties.Property, n1 cryptoutil.Nonce, verdicts []byte) [32]byte {
	return cryptoutil.Hash("Q1-batch", []byte(vid), []byte(p), n1[:], verdicts)
}

func customerBatchBody(b *CustomerBatch, verdicts []byte) [32]byte {
	return cryptoutil.Hash("customer-batch", []byte(b.Vid), []byte(b.Prop), b.N1[:], verdicts, b.Q1[:])
}

// BuildCustomerBatch assembles and signs a drain with the Cloud
// Controller's identity key SKc.
func BuildCustomerBatch(signer *cryptoutil.Identity, vid string, p properties.Property, n1 cryptoutil.Nonce, vs []properties.Verdict) *CustomerBatch {
	var buf [BatchStack]byte
	verdicts := appendVerdicts(buf[:0], vs)
	b := &CustomerBatch{Vid: vid, Prop: p, N1: n1, Verdicts: vs, Q1: computeBatchQ1(vid, p, n1, verdicts)}
	body := customerBatchBody(b, verdicts)
	b.Sig = signer.Sign(body[:])
	return b
}

// VerifyCustomerBatch is the customer's check of a drain: the controller's
// one signature over every verdict in order, the nonce it chose, and the
// quote.
func VerifyCustomerBatch(b *CustomerBatch, controllerKey ed25519.PublicKey, vid string, p properties.Property, n1 cryptoutil.Nonce) error {
	if b == nil {
		return errors.New("wire: nil customer batch")
	}
	if b.Vid != vid || b.Prop != p {
		return errors.New("wire: customer batch does not match the request")
	}
	if b.N1 != n1 {
		return errors.New("wire: customer batch nonce mismatch (replay?)")
	}
	var buf [BatchStack]byte
	verdicts := appendVerdicts(buf[:0], b.Verdicts)
	if body := customerBatchBody(b, verdicts); !cryptoutil.Verify(controllerKey, body[:], b.Sig) {
		return errors.New("wire: customer batch signature invalid")
	}
	want1 := computeBatchQ1(b.Vid, b.Prop, b.N1, verdicts)
	if !cryptoutil.ConstEqual(b.Q1[:], want1[:]) {
		return errors.New("wire: customer batch quote Q1 mismatch")
	}
	return nil
}
