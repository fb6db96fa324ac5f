package pca

import (
	"crypto/rand"
	"strings"
	"sync"
	"testing"

	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/ledger"
	"cloudmonatt/internal/trust"
)

func setup(t *testing.T) (*PCA, *trust.Module) {
	t.Helper()
	ca, err := New("pca", rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	m, err := trust.NewModule("server-1", 0, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ca.RegisterServer(m.Name(), m.IdentityKey())
	return ca, m
}

func TestCertifyGenuineRequest(t *testing.T) {
	ca, m := setup(t)
	sess, req, err := m.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	cert, err := ca.Certify(req)
	if err != nil {
		t.Fatalf("genuine request rejected: %v", err)
	}
	if err := VerifyAttestationCert(cert, ca.Name(), ca.PublicKey(), sess.Public()); err != nil {
		t.Fatalf("issued certificate does not verify: %v", err)
	}
}

func TestCertificateIsAnonymous(t *testing.T) {
	ca, m := setup(t)
	_, req, _ := m.NewSession()
	cert, err := ca.Certify(req)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(cert.Subject, "server-1") {
		t.Fatalf("certificate subject %q reveals the server identity", cert.Subject)
	}
}

func TestRejectUnknownServer(t *testing.T) {
	ca, _ := setup(t)
	rogue, err := trust.NewModule("rogue", 0, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	_, req, _ := rogue.NewSession()
	if _, err := ca.Certify(req); err == nil {
		t.Fatal("request from unregistered server accepted")
	}
}

func TestRejectForgedRequest(t *testing.T) {
	ca, m := setup(t)
	_, req, _ := m.NewSession()
	req.Sig[0] ^= 1
	if _, err := ca.Certify(req); err == nil {
		t.Fatal("forged request accepted")
	}
	if _, err := ca.Certify(nil); err == nil {
		t.Fatal("nil request accepted")
	}
}

func TestRejectImpersonation(t *testing.T) {
	// A registered-but-malicious server must not obtain a certificate for a
	// key it does not control under another server's name.
	ca, m := setup(t)
	mallory, _ := trust.NewModule("mallory", 0, rand.Reader)
	ca.RegisterServer(mallory.Name(), mallory.IdentityKey())
	_, req, _ := mallory.NewSession()
	req.Server = m.Name() // claim to be server-1
	if _, err := ca.Certify(req); err == nil {
		t.Fatal("impersonated request accepted")
	}
}

func TestVerifyAttestationCertChecksKeyAndPurpose(t *testing.T) {
	ca, m := setup(t)
	sess, req, _ := m.NewSession()
	cert, _ := ca.Certify(req)
	other, _, _ := m.NewSession()
	if err := VerifyAttestationCert(cert, ca.Name(), ca.PublicKey(), other.Public()); err == nil {
		t.Fatal("certificate accepted for a different attestation key")
	}
	cert.Purpose = "something-else"
	if err := VerifyAttestationCert(cert, ca.Name(), ca.PublicKey(), sess.Public()); err == nil {
		t.Fatal("certificate with wrong purpose accepted (and tampering undetected)")
	}
}

func TestSerialsIncrease(t *testing.T) {
	ca, m := setup(t)
	_, r1, _ := m.NewSession()
	_, r2, _ := m.NewSession()
	c1, _ := ca.Certify(r1)
	c2, _ := ca.Certify(r2)
	if c2.Serial <= c1.Serial {
		t.Fatalf("serials not increasing: %d then %d", c1.Serial, c2.Serial)
	}
	if c1.Subject == c2.Subject {
		t.Fatal("two certificates share an anonymous subject")
	}
}

// TestSerialsSurviveRestart is the regression test for the in-memory
// serial counter: a restarted pCA (same identity, same ledger) used to
// reissue anon-1, anon-2, … and break the serial uniqueness every verifier
// assumes. SetLedger must recover the high-water mark from KindCertIssue
// entries before the first post-restart issuance.
func TestSerialsSurviveRestart(t *testing.T) {
	seed := make([]byte, 32)
	for i := range seed {
		seed[i] = byte(i)
	}
	id, err := cryptoutil.IdentityFromSeed("pca", seed)
	if err != nil {
		t.Fatal(err)
	}
	led, err := ledger.Open(ledger.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()

	m, err := trust.NewModule("server-1", 0, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}

	ca := NewWithIdentity(id)
	if err := ca.SetLedger(led, nil); err != nil {
		t.Fatal(err)
	}
	ca.RegisterServer(m.Name(), m.IdentityKey())
	var last uint64
	subjects := map[string]bool{}
	for i := 0; i < 5; i++ {
		_, req, _ := m.NewSession()
		c, err := ca.Certify(req)
		if err != nil {
			t.Fatal(err)
		}
		last = c.Serial
		subjects[c.Subject] = true
	}

	// "Restart": a fresh process reconstructs the pCA from its escrowed
	// identity and the surviving ledger.
	ca2 := NewWithIdentity(id)
	if err := ca2.SetLedger(led, nil); err != nil {
		t.Fatal(err)
	}
	if hw := ca2.SerialHighWater(); hw != last {
		t.Fatalf("recovered high-water mark %d, want %d", hw, last)
	}
	ca2.RegisterServer(m.Name(), m.IdentityKey())
	for i := 0; i < 5; i++ {
		_, req, _ := m.NewSession()
		c, err := ca2.Certify(req)
		if err != nil {
			t.Fatal(err)
		}
		if c.Serial <= last {
			t.Fatalf("post-restart serial %d not above pre-restart high-water %d", c.Serial, last)
		}
		last = c.Serial
		if subjects[c.Subject] {
			t.Fatalf("post-restart certificate reused anonymous subject %q", c.Subject)
		}
		subjects[c.Subject] = true
	}
}

// TestUnreadableIssuanceFailsRecovery: an issuance SetLedger cannot read
// may hold the highest serial, so skipping it would let the next Certify
// issue serial 4 again. Recovery refuses and names the entry instead.
func TestUnreadableIssuanceFailsRecovery(t *testing.T) {
	led, err := ledger.Open(ledger.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	for serial := uint64(1); serial <= 3; serial++ {
		if err := ledger.Record(led, ledger.Entry{Kind: ledger.KindCertIssue}, IssuanceRecord{Serial: serial}); err != nil {
			t.Fatal(err)
		}
	}
	// Entry 4 carries a byte after its record.
	if _, err := led.Append(ledger.Entry{Kind: ledger.KindCertIssue, Payload: append(IssuanceRecord{Serial: 4}.AppendWire(nil), 0)}); err != nil {
		t.Fatal(err)
	}
	ca, _ := setup(t)
	err = ca.SetLedger(led, nil)
	if err == nil || !strings.Contains(err.Error(), "entry 4") {
		t.Fatalf("SetLedger over an unreadable issuance = %v (high-water %d), want an error naming entry 4", err, ca.SerialHighWater())
	}
}

// TestCertifyCachesSessions: re-certifying the same (server, session key)
// returns the identical certificate without consuming a serial, so N
// shards appraising one server don't turn the pCA into a bottleneck.
func TestCertifyCachesSessions(t *testing.T) {
	ca, m := setup(t)
	sess, req, err := m.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	c1, err := ca.Certify(req)
	if err != nil {
		t.Fatal(err)
	}
	before := cryptoutil.Ops()
	c2, err := ca.Certify(req)
	if err != nil {
		t.Fatal(err)
	}
	delta := cryptoutil.Ops().Sub(before)
	if c2 != c1 {
		t.Fatal("repeat certification did not return the cached certificate")
	}
	if delta.Sign != 0 || delta.Verify != 0 {
		t.Fatalf("cache hit still did crypto: %d signs, %d verifies", delta.Sign, delta.Verify)
	}
	st := ca.CertStats()
	if st.Issued != 1 || st.CacheHits != 1 {
		t.Fatalf("stats %+v, want 1 issued / 1 cache hit", st)
	}
	if err := VerifyAttestationCert(c2, ca.Name(), ca.PublicKey(), sess.Public()); err != nil {
		t.Fatal(err)
	}
	// A different session from the same server is a different key: no hit.
	_, req2, _ := m.NewSession()
	c3, err := ca.Certify(req2)
	if err != nil {
		t.Fatal(err)
	}
	if c3.Serial == c1.Serial {
		t.Fatal("distinct session keys shared a serial")
	}
}

// TestCertCacheEvictsOldest: past certCacheSize sessions the cache forgets
// its oldest entry, so a repeat of that request is certified again under a
// fresh serial, while the newest session is still answered from the cache.
func TestCertCacheEvictsOldest(t *testing.T) {
	ca, m := setup(t)
	reqs := make([]*trust.CertRequest, certCacheSize+1)
	var oldest *cryptoutil.Certificate
	for i := range reqs {
		var err error
		if _, reqs[i], err = m.NewSession(); err != nil {
			t.Fatal(err)
		}
		c, err := ca.Certify(reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			oldest = c
		}
	}
	if n := len(ca.cache); n != certCacheSize {
		t.Fatalf("cache holds %d certificates after %d sessions, want %d", n, len(reqs), certCacheSize)
	}
	again, err := ca.Certify(reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	if again == oldest || again.Serial != uint64(len(reqs)+1) {
		t.Fatalf("evicted session re-certified with serial %d (first %d), want a fresh %d", again.Serial, oldest.Serial, len(reqs)+1)
	}
	if _, err := ca.Certify(reqs[len(reqs)-1]); err != nil {
		t.Fatal(err)
	}
	if st := ca.CertStats(); st.Issued != uint64(len(reqs)+1) || st.CacheHits != 1 {
		t.Fatalf("stats %+v, want %d issued / 1 cache hit", st, len(reqs)+1)
	}
}

// --- the verified-certificate set ---

// issued returns a genuine attestation-key certificate and its key.
func issued(t *testing.T, ca *PCA, m *trust.Module) (*cryptoutil.Certificate, []byte) {
	t.Helper()
	sess, req, err := m.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	cert, err := ca.Certify(req)
	if err != nil {
		t.Fatal(err)
	}
	return cert, sess.Public()
}

// verifies counts the ed25519 verifications one call performs.
func verifies(f func()) uint64 {
	before := cryptoutil.Ops()
	f()
	return cryptoutil.Ops().Sub(before).Verify
}

func verifiedLen() int {
	verified.mu.Lock()
	defer verified.mu.Unlock()
	return len(verified.set)
}

func TestVerifiedCertHitSkipsOnlyTheSignature(t *testing.T) {
	ca, m := setup(t)
	cert, avk := issued(t, ca, m)
	check := func() error { return VerifyAttestationCert(cert, ca.Name(), ca.PublicKey(), avk) }
	// A miss pays the signature check, every later call is a hit.
	for call, want := range []uint64{1, 0, 0} {
		if n := verifies(func() {
			if err := check(); err != nil {
				t.Fatal(err)
			}
		}); n != want {
			t.Fatalf("call %d on one certificate did %d verifications, want %d", call+1, n, want)
		}
	}
	// The per-evidence checks still run on a hit.
	_, otherKey := issued(t, ca, m)
	if err := VerifyAttestationCert(cert, ca.Name(), ca.PublicKey(), otherKey); err == nil {
		t.Fatal("remembered certificate accepted for a key it does not cover")
	}
	// The lookup stays off the heap (attest-fleet's allocs_per_op bound is
	// five allocations).
	if a := testing.AllocsPerRun(100, func() { _ = check() }); a != 0 {
		t.Fatalf("a hit allocates %.0f times, want 0", a)
	}
}

func TestVerifiedCertMutationsStillRejected(t *testing.T) {
	ca, m := setup(t)
	cert, avk := issued(t, ca, m)
	if err := VerifyAttestationCert(cert, ca.Name(), ca.PublicKey(), avk); err != nil {
		t.Fatal(err)
	}
	flip := func(b []byte) []byte {
		out := append([]byte(nil), b...)
		out[len(out)/2] ^= 1
		return out
	}
	mutants := map[string]func(c *cryptoutil.Certificate){
		"Sig":     func(c *cryptoutil.Certificate) { c.Sig = flip(c.Sig) },
		"Key":     func(c *cryptoutil.Certificate) { c.Key = flip(c.Key) },
		"Subject": func(c *cryptoutil.Certificate) { c.Subject = string(flip([]byte(c.Subject))) },
		"Serial":  func(c *cryptoutil.Certificate) { c.Serial ^= 1 },
		"Purpose": func(c *cryptoutil.Certificate) { c.Purpose = string(flip([]byte(c.Purpose))) },
		"Issuer":  func(c *cryptoutil.Certificate) { c.Issuer = string(flip([]byte(c.Issuer))) },
	}
	for field, mutate := range mutants {
		c := *cert
		mutate(&c)
		// Present the mutated key as the AVK too, so it is the signature,
		// not the binding check, that has to catch a changed Key.
		if err := VerifyAttestationCert(&c, ca.Name(), ca.PublicKey(), c.Key); err == nil {
			t.Errorf("certificate with one bit of %s changed accepted after the genuine one was remembered", field)
		}
	}
	if err := VerifyAttestationCert(cert, ca.Name(), ca.PublicKey(), avk); err != nil {
		t.Fatalf("genuine certificate rejected after its mutants: %v", err)
	}
}

func TestVerifiedCertBoundToCAKeyAndName(t *testing.T) {
	ca, m := setup(t)
	cert, avk := issued(t, ca, m)
	if err := VerifyAttestationCert(cert, ca.Name(), ca.PublicKey(), avk); err != nil {
		t.Fatal(err)
	}
	other, err := New("pca", rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAttestationCert(cert, ca.Name(), other.PublicKey(), avk); err == nil {
		t.Fatal("remembered certificate accepted under another CA key")
	}
	if err := VerifyAttestationCert(cert, "other-ca", ca.PublicKey(), avk); err == nil {
		t.Fatal("remembered certificate accepted under another CA name")
	}
	if err := VerifyAttestationCert(cert, ca.Name(), ca.PublicKey(), avk); err != nil {
		t.Fatalf("genuine check fails after the rejected ones: %v", err)
	}
}

func TestFailedVerificationIsNotRemembered(t *testing.T) {
	ca, m := setup(t)
	cert, avk := issued(t, ca, m)
	forged := *cert
	forged.Sig = append([]byte(nil), cert.Sig...)
	forged.Sig[0] ^= 1
	before := verifiedLen()
	for i := 0; i < 2; i++ {
		if n := verifies(func() {
			if err := VerifyAttestationCert(&forged, ca.Name(), ca.PublicKey(), avk); err == nil {
				t.Fatal("forged certificate accepted")
			}
		}); n != 1 {
			t.Fatalf("check %d of a forged certificate did %d verifications, want 1 every time", i+1, n)
		}
	}
	if got := verifiedLen(); got != before {
		t.Fatalf("set grew from %d to %d on failed verifications", before, got)
	}
	if err := VerifyAttestationCert(nil, ca.Name(), ca.PublicKey(), avk); err == nil {
		t.Fatal("nil certificate accepted")
	}
}

func TestVerifiedSetIsBoundedFIFO(t *testing.T) {
	id := cryptoutil.MustIdentity("pca")
	key := cryptoutil.MustIdentity("avk").Public()
	mint := func(serial uint64) *cryptoutil.Certificate {
		return cryptoutil.IssueCertificate(id, "anon", PurposeAttestationKey, key, serial)
	}
	oldest := mint(0)
	if err := VerifyAttestationCert(oldest, id.Name, id.Public(), key); err != nil {
		t.Fatal(err)
	}
	for serial := uint64(1); serial <= 10*verifiedCertsSize; serial++ {
		if err := VerifyAttestationCert(mint(serial), id.Name, id.Public(), key); err != nil {
			t.Fatal(err)
		}
		if n := verifiedLen(); n > verifiedCertsSize {
			t.Fatalf("set holds %d entries after %d certificates, bound is %d", n, serial+1, verifiedCertsSize)
		}
	}
	if n := verifiedLen(); n != verifiedCertsSize {
		t.Fatalf("set holds %d entries, want it full at %d", n, verifiedCertsSize)
	}
	recheck := func(c *cryptoutil.Certificate) uint64 {
		return verifies(func() {
			if err := VerifyAttestationCert(c, id.Name, id.Public(), key); err != nil {
				t.Fatal(err)
			}
		})
	}
	if n := recheck(oldest); n != 1 {
		t.Fatalf("evicted certificate re-checked with %d verifications, want 1", n)
	}
	if n := recheck(mint(10 * verifiedCertsSize)); n != 0 {
		t.Fatalf("newest certificate re-checked with %d verifications, want 0", n)
	}
}

func TestVerifiedSetConcurrentShards(t *testing.T) {
	ca, m := setup(t)
	const sessions, shards = 20, 4
	certs := make([]*cryptoutil.Certificate, sessions)
	avks := make([][]byte, sessions)
	for i := range certs {
		certs[i], avks[i] = issued(t, ca, m)
	}
	var wg sync.WaitGroup
	n := verifies(func() {
		for i := range certs {
			for shard := 0; shard < shards; shard++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for k := 0; k < 10; k++ {
						if err := VerifyAttestationCert(certs[i], ca.Name(), ca.PublicKey(), avks[i]); err != nil {
							t.Error(err)
						}
					}
				}()
			}
		}
		wg.Wait()
	})
	// Exact whatever the interleaving: shards that miss together verify once
	// between them.
	if n != sessions {
		t.Fatalf("%d shards checking %d new certificates did %d verifications, want %d", shards, sessions, n, sessions)
	}
}
