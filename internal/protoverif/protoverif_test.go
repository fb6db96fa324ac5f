package protoverif

import (
	"strings"
	"testing"
)

func TestTermAlgebra(t *testing.T) {
	a, b := Name("a"), Name("b")
	if !Pair(a, b).Equal(Pair(a, b)) {
		t.Fatal("structural equality broken")
	}
	if Pair(a, b).Equal(Pair(b, a)) {
		t.Fatal("pair order ignored")
	}
	// n-tuples right-nest.
	if !Pair(a, b, Name("c")).Equal(Pair(a, Pair(b, Name("c")))) {
		t.Fatal("tuple nesting inconsistent")
	}
	if Pair(a).String() != a.String() {
		t.Fatal("singleton pair not collapsed")
	}
	if SEnc(a, b).Equal(Sign(a, b)) {
		t.Fatal("constructors collide")
	}
}

func TestAnalysisDecomposition(t *testing.T) {
	k, m := Name("k"), Name("m")
	// Attacker sees senc(k,m) and later learns k ⇒ learns m.
	kn := NewKnowledge([]*Term{SEnc(k, m), k})
	if !kn.CanDerive(m) {
		t.Fatal("decryption with known key failed")
	}
	// Without the key, m stays secret.
	kn = NewKnowledge([]*Term{SEnc(k, m)})
	if kn.CanDerive(m) {
		t.Fatal("decryption without key succeeded")
	}
	// Signatures reveal their message but not the key.
	kn = NewKnowledge([]*Term{Sign(k, m)})
	if !kn.CanDerive(m) {
		t.Fatal("signature did not reveal message")
	}
	if kn.CanDerive(k) {
		t.Fatal("signature revealed the signing key")
	}
	// Pairs decompose.
	kn = NewKnowledge([]*Term{Pair(k, m)})
	if !kn.CanDerive(k) || !kn.CanDerive(m) {
		t.Fatal("pair decomposition failed")
	}
}

func TestAnalysisFixpoint(t *testing.T) {
	// Key arrives inside another encryption: senc(k1, k2), senc(k2, m), k1.
	k1, k2, m := Name("k1"), Name("k2"), Name("m")
	kn := NewKnowledge([]*Term{SEnc(k1, k2), SEnc(k2, m), k1})
	if !kn.CanDerive(m) {
		t.Fatal("two-step decryption fixpoint failed")
	}
}

func TestSynthesis(t *testing.T) {
	k, m, s := Name("k"), Name("m"), Name("secret")
	kn := NewKnowledge([]*Term{k, m})
	if !kn.CanDerive(SEnc(k, m)) {
		t.Fatal("cannot compose encryption from known parts")
	}
	if !kn.CanDerive(Hash(Pair(k, m))) {
		t.Fatal("cannot compose hash")
	}
	if !kn.CanDerive(Sign(k, m)) {
		t.Fatal("cannot sign with known key")
	}
	if kn.CanDerive(SEnc(s, m)) {
		t.Fatal("composed encryption under unknown key")
	}
	if kn.CanDerive(s) {
		t.Fatal("derived an unknown atom")
	}
}

func TestFullProtocolHasNoViolations(t *testing.T) {
	m := NewModel(Full)
	findings := m.Check()
	if len(findings) != 0 {
		t.Fatalf("full protocol violated: %v", findings)
	}
	if m.K.Size() == 0 {
		t.Fatal("empty attacker knowledge — model not built")
	}
}

// TestFullModelSharesOneSessionKeyAcrossRequests states what the cloud
// server's session policy relies on (DESIGN.md §15): the model the six
// properties are proved on already signs the evidence of both of its
// requests under one ASKs carrying one pCA certificate, so none of them
// hangs on a fresh key per attestation — telling the two evidences apart is
// N3's job. A model changed to per-request keys fails here, and reusing a
// key has to be argued again.
func TestFullModelSharesOneSessionKeyAcrossRequests(t *testing.T) {
	m := NewModel(Full)
	if findings := m.Check(); len(findings) != 0 {
		t.Fatalf("full protocol violated: %v", findings)
	}
	var evidence, certs []*Term
	for i, s := range []*Session{m.S1, m.S2} {
		hop4 := s.Trace[3] // senc(kz, pair(sign(asks, …), cert))
		if hop4.Op != OpSEnc || !hop4.Args[0].Equal(m.Kz) || hop4.Args[1].Op != OpPair {
			t.Fatalf("request %d: hop 4 is %s, want evidence and certificate under Kz", i+1, hop4)
		}
		ev, cert := hop4.Args[1].Args[0], hop4.Args[1].Args[1]
		if ev.Op != OpSign || !ev.Args[0].Equal(m.ASKS) {
			t.Fatalf("request %d: evidence %s not signed under the shared session key %s", i+1, ev, m.ASKS)
		}
		evidence, certs = append(evidence, ev), append(certs, cert)
	}
	if want := Sign(m.SKPCA, PK(m.ASKS)); !certs[0].Equal(want) || !certs[1].Equal(want) {
		t.Fatalf("requests carry certificates %s and %s, want both %s", certs[0], certs[1], want)
	}
	if evidence[0].Equal(evidence[1]) {
		t.Fatal("the two requests' evidence is one term: N3 no longer separates them")
	}
}

func expectViolation(t *testing.T, v Variant, property, detailFragment string) {
	t.Helper()
	findings := NewModel(v).Check()
	for _, f := range findings {
		if f.Property == property && strings.Contains(f.Detail, detailFragment) {
			return
		}
	}
	t.Fatalf("%s: expected %s violation containing %q, got %v", v, property, detailFragment, findings)
}

func TestNoEncryptionLeaksEverything(t *testing.T) {
	expectViolation(t, NoEncryption, "secrecy", "P derivable")
	expectViolation(t, NoEncryption, "secrecy", "M derivable")
	expectViolation(t, NoEncryption, "secrecy", "R derivable")
}

func TestReusedNoncesAllowReplay(t *testing.T) {
	expectViolation(t, ReusedNonces, "integrity", "replays into session 2")
}

func TestLeakedSessionKeyBreaksSecrecyButNotForgery(t *testing.T) {
	expectViolation(t, LeakedSessionKey, "secrecy", "Kx derivable")
	expectViolation(t, LeakedSessionKey, "secrecy", "R derivable")
	// The report signature still prevents forging even with the channel key:
	// no integrity *forgery* finding (replay into another session is blocked
	// by nonces).
	for _, f := range NewModel(LeakedSessionKey).Check() {
		if f.Property == "integrity" && strings.Contains(f.Detail, "forge") {
			t.Fatalf("signature did not protect integrity under leaked channel key: %v", f)
		}
	}
}

func TestUnsignedReportsSurviveOnlyViaChannel(t *testing.T) {
	// With signatures stripped but channels intact, the attacker still can't
	// forge (cannot produce senc(kx, ...)): integrity rests entirely on the
	// channel, exactly the defense-in-depth argument for signing.
	findings := NewModel(UnsignedReports).Check()
	if len(findings) != 0 {
		t.Fatalf("unsigned-but-encrypted variant flagged: %v", findings)
	}
	// But combined with a leaked channel key the forgery appears.
	m := NewModel(UnsignedReports)
	m.K = NewKnowledge(append(snapshot(m.K.terms), m.Kx))
	forged := m.message6(m.S2, Name("r_fake"))
	if !m.K.CanDerive(forged) {
		t.Fatal("leaked key + unsigned report should allow forgery")
	}
	// Whereas the Full protocol resists forgery even with the key leaked.
	fm := NewModel(Full)
	fm.K = NewKnowledge(append(snapshot(fm.K.terms), fm.Kx))
	if fm.K.CanDerive(fm.message6(fm.S2, Name("r_fake"))) {
		t.Fatal("signed report forged despite unknown signing key")
	}
}

func TestVariantStrings(t *testing.T) {
	for _, v := range []Variant{Full, NoEncryption, ReusedNonces, LeakedSessionKey, UnsignedReports} {
		if v.String() == "" || strings.HasPrefix(v.String(), "variant(") {
			t.Fatalf("missing name for variant %d", int(v))
		}
	}
	if Variant(99).String() != "variant(99)" {
		t.Fatal("fallback name broken")
	}
}

// --- secure-channel handshake model ---

func TestDHNormalization(t *testing.T) {
	x, y := Name("x"), Name("y")
	if !DH(x, EPub(y)).Equal(DH(y, EPub(x))) {
		t.Fatal("DH not commutative under normalization")
	}
	z := Name("z")
	if DH(x, EPub(y)).Equal(DH(x, EPub(z))) {
		t.Fatal("distinct DH secrets collide")
	}
}

func TestDHSynthesisRules(t *testing.T) {
	x, y := Name("x"), Name("y")
	// Knowing one exponent and the peer public half derives the secret.
	kn := NewKnowledge([]*Term{x, EPub(y)})
	if !kn.CanDerive(DH(x, EPub(y))) {
		t.Fatal("DH underivable with exponent + peer public")
	}
	// Knowing only the two public halves does not.
	kn = NewKnowledge([]*Term{EPub(x), EPub(y)})
	if kn.CanDerive(DH(x, EPub(y))) {
		t.Fatal("DH derivable from public halves alone (CDH broken)")
	}
}

func TestSignedHandshakeResistsMITM(t *testing.T) {
	m := NewHandshakeModel(true)
	if !m.SessionKeySecret() {
		t.Fatal("session key derivable by passive attacker")
	}
	if m.MITMPossible() {
		t.Fatal("signed handshake admits a man in the middle")
	}
}

func TestUnsignedHandshakeFallsToMITM(t *testing.T) {
	// The falsifiability check: strip the transcript signatures and the
	// classic unauthenticated-DH MITM appears.
	m := NewHandshakeModel(false)
	if !m.SessionKeySecret() {
		t.Fatal("even unsigned DH keeps the honest key from a passive attacker")
	}
	if !m.MITMPossible() {
		t.Fatal("unsigned handshake should be MITM-able; the model lost its teeth")
	}
}
