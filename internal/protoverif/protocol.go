package protoverif

import "fmt"

// Variant selects the protocol (or a deliberately weakened mutant used to
// show the verifier detects real flaws).
type Variant int

// Protocol variants.
const (
	// Full is the CloudMonatt protocol as specified in Fig. 3.
	Full Variant = iota
	// NoEncryption sends every message in the clear (no Kx/Ky/Kz).
	NoEncryption
	// ReusedNonces uses the same nonces in every session.
	ReusedNonces
	// LeakedSessionKey models a broken key exchange: the attacker learns Kx.
	LeakedSessionKey
	// UnsignedReports omits the controller/attestation-server signatures,
	// relying on channel encryption alone.
	UnsignedReports
	// PeriodicDrain is Full plus two periodic drains of two verdicts each,
	// every drain one message per hop, signed once under the requester's
	// nonce: N2 on hop 5, N1 on hop 6.
	PeriodicDrain
	// PerReportDrain is the drain shape before that — every verdict signed
	// on its own on hops 5 and 6 — with Kx leaked: whoever holds the
	// channel key can drop or reorder verdicts.
	PerReportDrain
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case Full:
		return "full"
	case NoEncryption:
		return "no-encryption"
	case ReusedNonces:
		return "reused-nonces"
	case LeakedSessionKey:
		return "leaked-session-key"
	case UnsignedReports:
		return "unsigned-reports"
	case PeriodicDrain:
		return "periodic-drain"
	case PerReportDrain:
		return "per-report-drain"
	}
	return fmt.Sprintf("variant(%d)", int(v))
}

// Session holds the symbolic values of one attestation request.
type Session struct {
	N1, N2, N3 *Term
	P, M, R    *Term // property, measurements, report
	Trace      []*Term
}

// Drain holds the symbolic values of one periodic drain: the customer's N1,
// the controller's N2, and the verdicts the shard buffered, in order.
type Drain struct {
	N1, N2 *Term
	R      []*Term
	Trace  []*Term
}

// Model is the symbolic CloudMonatt system: long-term keys, the per-
// connection channel keys, two attestation requests over the same channels
// (to test cross-request replay — the scenario the protocol nonces exist
// for), for the drain variants two periodic drains, and the attacker's
// knowledge.
type Model struct {
	Variant Variant

	SKCust, SKC, SKA, SKS, ASKS, SKPCA *Term
	Vid, ServerID                      *Term
	Kx, Ky, Kz                         *Term // per-connection session keys

	S1, S2 *Session
	D1, D2 *Drain // nil but in the drain variants
	K      *Knowledge
}

// NewModel builds the message trace of two honest sessions under the given
// variant and computes the attacker's knowledge closure.
func NewModel(v Variant) *Model {
	m := &Model{
		Variant:  v,
		SKCust:   Name("sk_customer"),
		SKC:      Name("sk_controller"),
		SKA:      Name("sk_attestsrv"),
		SKS:      Name("sk_server"),
		ASKS:     Name("ask_session"),
		SKPCA:    Name("sk_pca"),
		Vid:      Name("vid"),
		ServerID: Name("server_I"),
		Kx:       Name("kx"),
		Ky:       Name("ky"),
		Kz:       Name("kz"),
	}
	m.S1 = m.session(1, v)
	m.S2 = m.session(2, v)
	if v == PeriodicDrain || v == PerReportDrain {
		m.D1, m.D2 = m.drain(1), m.drain(2)
	}

	// Attacker initial knowledge: public identities and keys, own material.
	initial := []*Term{
		m.Vid, m.ServerID,
		PK(m.SKCust), PK(m.SKC), PK(m.SKA), PK(m.SKS), PK(m.ASKS), PK(m.SKPCA),
		Name("sk_attacker"), Name("n_attacker"), Name("r_fake"), Name("p_fake"), Name("m_fake"),
	}
	if v == LeakedSessionKey || v == PerReportDrain {
		initial = append(initial, m.Kx)
	}
	initial = append(initial, m.S1.Trace...)
	initial = append(initial, m.S2.Trace...)
	for _, d := range []*Drain{m.D1, m.D2} {
		if d != nil {
			initial = append(initial, d.Trace...)
		}
	}
	m.K = NewKnowledge(initial)
	return m
}

// session builds the network trace of one honest run.
func (m *Model) session(i int, v Variant) *Session {
	s := &Session{
		P: Name("prop"),
		M: Name(fmt.Sprintf("meas_%d", i)),
		R: Name(fmt.Sprintf("report_%d", i)),
	}
	suffix := fmt.Sprintf("_%d", i)
	if v == ReusedNonces {
		suffix = "" // both sessions share nonce names
	}
	s.N1 = Name("n1" + suffix)
	s.N2 = Name("n2" + suffix)
	s.N3 = Name("n3" + suffix)

	enc := func(k, payload *Term) *Term {
		if v == NoEncryption {
			return payload
		}
		return SEnc(k, payload)
	}
	sign := func(sk, payload *Term) *Term {
		if v == UnsignedReports {
			return payload
		}
		return Sign(sk, payload)
	}
	rM := Name("req_measurements")

	q3 := Hash(Pair(m.Vid, rM, s.M, s.N3))
	q2 := Hash(Pair(m.Vid, m.ServerID, s.P, s.R, s.N2))
	q1 := Hash(Pair(m.Vid, s.P, s.R, s.N1))
	cert := Sign(m.SKPCA, PK(m.ASKS)) // pCA certificate for the session key

	s.Trace = []*Term{
		// 1. customer → controller
		enc(m.Kx, Pair(m.Vid, s.P, s.N1)),
		// 2. controller → attestation server
		enc(m.Ky, Pair(m.Vid, m.ServerID, s.P, s.N2)),
		// 3. attestation server → cloud server
		enc(m.Kz, Pair(m.Vid, rM, s.N3)),
		// 4. cloud server → attestation server (signed evidence + cert)
		enc(m.Kz, Pair(sign(m.ASKS, Pair(m.Vid, rM, s.M, s.N3, q3)), cert)),
		// 5. attestation server → controller (signed report)
		enc(m.Ky, sign(m.SKA, Pair(m.Vid, m.ServerID, s.P, s.R, s.N2, q2))),
		// 6. controller → customer (signed final report)
		enc(m.Kx, sign(m.SKC, Pair(m.Vid, s.P, s.R, s.N1, q1))),
	}
	return s
}

// message6 builds the term a customer in session s accepts for report r:
// the shape check of VerifyCustomerReport in symbolic form.
func (m *Model) message6(s *Session, r *Term) *Term {
	q1 := Hash(Pair(m.Vid, s.P, r, s.N1))
	payload := Pair(m.Vid, s.P, r, s.N1, q1)
	var signed *Term
	if m.Variant == UnsignedReports {
		signed = payload
	} else {
		signed = Sign(m.SKC, payload)
	}
	if m.Variant == NoEncryption {
		return signed
	}
	return SEnc(m.Kx, signed)
}

// drain builds the network trace of one honest periodic drain: the
// customer's fetch, the controller's drain request, the measurement
// exchange behind each buffered verdict (each tick draws its own N3), and
// hops 5 and 6 in the variant's shape.
func (m *Model) drain(i int) *Drain {
	p, rM := Name("prop"), Name("req_measurements")
	cert := Sign(m.SKPCA, PK(m.ASKS))
	d := &Drain{N1: Name(fmt.Sprintf("drain_n1_%d", i)), N2: Name(fmt.Sprintf("drain_n2_%d", i))}
	d.Trace = []*Term{
		SEnc(m.Kx, Pair(m.Vid, p, d.N1)),
		SEnc(m.Ky, Pair(m.Vid, p, d.N2)),
	}
	var entries []*Term
	for j := 1; j <= 2; j++ {
		r := Name(fmt.Sprintf("drain_report_%d_%d", i, j))
		meas := Name(fmt.Sprintf("drain_meas_%d_%d", i, j))
		n3 := Name(fmt.Sprintf("drain_n3_%d_%d", i, j))
		d.R = append(d.R, r)
		d.Trace = append(d.Trace,
			SEnc(m.Kz, Pair(m.Vid, rM, n3)),
			SEnc(m.Kz, Pair(Sign(m.ASKS, Pair(m.Vid, rM, meas, n3, Hash(Pair(m.Vid, rM, meas, n3)))), cert)))
		entries = append(entries, Pair(m.ServerID, r))
	}
	hop5 := []*Term{Sign(m.SKA, Pair(m.Vid, p, d.N2, Pair(entries...), Name("loss_counts")))}
	if m.Variant == PerReportDrain {
		// Per report, each verdict was signed under its own tick's N2.
		hop5 = nil
		for j, r := range d.R {
			n2 := Name(fmt.Sprintf("drain_tick_n2_%d_%d", i, j+1))
			hop5 = append(hop5, Sign(m.SKA, Pair(m.Vid, m.ServerID, p, r, n2, Hash(Pair(m.Vid, m.ServerID, p, r, n2)))))
		}
	}
	d.Trace = append(d.Trace, SEnc(m.Ky, Pair(hop5...)), m.drainMessage6(d, d.R))
	return d
}

// drainMessage6 builds the term a customer in drain d accepts for the
// verdicts rs, in order: the shape check of VerifyCustomerBatch — or, per
// report, of VerifyCustomerReport on each element of the list.
func (m *Model) drainMessage6(d *Drain, rs []*Term) *Term {
	p := Name("prop")
	if m.Variant == PerReportDrain {
		var reports []*Term
		for _, r := range rs {
			reports = append(reports, Sign(m.SKC, Pair(m.Vid, p, r, d.N1, Hash(Pair(m.Vid, p, r, d.N1)))))
		}
		return SEnc(m.Kx, Pair(reports...))
	}
	verdicts := Pair(rs...)
	return SEnc(m.Kx, Sign(m.SKC, Pair(m.Vid, p, d.N1, verdicts, Hash(Pair(m.Vid, p, d.N1, verdicts)))))
}

// Finding is one violated property.
type Finding struct {
	Property string
	Detail   string
}

// Check verifies the six properties of §7.2.2 and returns all violations
// (none for the Full protocol).
func (m *Model) Check() []Finding {
	var out []Finding
	secret := func(label string, t *Term) {
		if m.K.CanDerive(t) {
			out = append(out, Finding{Property: "secrecy", Detail: label + " derivable by attacker"})
		}
	}

	// Property 1: session keys and private identity keys stay secret.
	secret("Kx", m.Kx)
	secret("Ky", m.Ky)
	secret("Kz", m.Kz)
	secret("SK_customer", m.SKCust)
	secret("SK_controller", m.SKC)
	secret("SK_attestsrv", m.SKA)
	secret("SK_server", m.SKS)
	secret("ASK_session", m.ASKS)

	// Property 2: P, M, R stay secret.
	secret("P", m.S1.P)
	secret("M", m.S1.M)
	secret("R", m.S1.R)
	if m.D1 != nil {
		secret("drained R", m.D1.R[0])
	}

	// Property 3 (integrity): the attacker cannot make the customer accept
	// a fabricated report r_fake in session 2.
	forged := m.message6(m.S2, Name("r_fake"))
	if m.K.CanDerive(forged) {
		out = append(out, Finding{Property: "integrity", Detail: "attacker can forge an acceptable customer report"})
	}
	// ... nor replay session 1's genuine report into session 2.
	replayed := m.message6(m.S2, m.S1.R)
	genuine := m.message6(m.S2, m.S2.R)
	if !replayed.Equal(genuine) && m.K.CanDerive(replayed) {
		out = append(out, Finding{Property: "integrity", Detail: "session-1 report replays into session 2"})
	}

	// ... and a drain is accepted whole or not at all: no fabricated, dropped
	// or reordered verdict, and not session 1's verdicts under session 2's
	// N1.
	if m.D1 != nil {
		d1, d2 := m.D1, m.D2
		for _, c := range []struct {
			label string
			rs    []*Term
		}{
			{"a fabricated verdict", []*Term{d2.R[0], Name("r_fake")}},
			{"a dropped verdict", []*Term{d2.R[1]}},
			{"reordered verdicts", []*Term{d2.R[1], d2.R[0]}},
			{"session 1's verdicts", d1.R},
		} {
			if m.K.CanDerive(m.drainMessage6(d2, c.rs)) {
				out = append(out, Finding{Property: "integrity", Detail: "customer accepts a drain with " + c.label})
			}
		}
	}

	// Properties 4–6 (authentication): impersonating an entity on any hop
	// requires signing that hop's handshake transcript with the entity's
	// identity key.
	for _, e := range []struct {
		label string
		sk    *Term
	}{
		{"customer<->controller (customer)", m.SKCust},
		{"customer<->controller (controller)", m.SKC},
		{"controller<->attestsrv (attestsrv)", m.SKA},
		{"attestsrv<->cloudserver (cloudserver)", m.SKS},
	} {
		transcript := Name("handshake_transcript")
		if m.K.CanDerive(Sign(e.sk, transcript)) {
			out = append(out, Finding{Property: "authentication", Detail: "attacker can impersonate " + e.label})
		}
	}
	return out
}
