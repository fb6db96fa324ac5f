// Package cryptoutil provides the cryptographic primitives shared by every
// CloudMonatt entity: Ed25519 identities, a minimal certificate format, the
// canonical hash used for protocol quotes (Q1/Q2/Q3 in Fig. 3 of the paper),
// and nonce generation with replay detection.
//
// Hashing and randomness are the standard library's (crypto/sha256,
// crypto/rand). The asymmetric operations run on the standard library's
// own curve arithmetic, copied into the edwards25519 subpackage because Go
// does not export it, and make the standard library's bytes: Identity
// expands its key once and signs as crypto/ed25519.Sign does, Verify
// checks against per-key tables and accepts what crypto/ed25519.Verify
// accepts, and Ephemeral gives the secure channel crypto/ecdh's X25519
// keys and secrets.
package cryptoutil

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"cloudmonatt/internal/cryptoutil/edwards25519"
)

// NonceSize is the byte length of protocol nonces (N1, N2, N3).
const NonceSize = 16

// Nonce is a freshness value attached to every protocol message.
type Nonce [NonceSize]byte

// String renders the nonce in hex.
func (n Nonce) String() string { return fmt.Sprintf("%x", n[:]) }

// NewNonce draws a fresh random nonce from the given source (crypto/rand
// in production, a deterministic reader in tests).
func NewNonce(r io.Reader) (Nonce, error) {
	var n Nonce
	if _, err := io.ReadFull(r, n[:]); err != nil {
		return Nonce{}, fmt.Errorf("cryptoutil: drawing nonce: %w", err)
	}
	return n, nil
}

// MustNonce is NewNonce from crypto/rand, panicking on failure (the system
// cannot operate without randomness).
func MustNonce() Nonce {
	n, err := NewNonce(rand.Reader)
	if err != nil {
		panic(err)
	}
	return n
}

// Identity is a named Ed25519 key pair identifying one entity (customer,
// Cloud Controller, Attestation Server, or the Trust Module of a cloud
// server). The private key never leaves the owning process. It is expanded
// once, when the identity is made, so a signature pays only for its own
// scalar multiplication.
type Identity struct {
	Name string
	seed [ed25519.SeedSize]byte
	pub  [ed25519.PublicKeySize]byte
	key  edwards25519.SignKey
}

// NewIdentity generates a fresh identity using the given entropy source,
// drawing its 32-byte seed as crypto/ed25519.GenerateKey does.
func NewIdentity(name string, r io.Reader) (*Identity, error) {
	if r == nil {
		r = rand.Reader
	}
	var seed [ed25519.SeedSize]byte
	if _, err := io.ReadFull(r, seed[:]); err != nil {
		return nil, fmt.Errorf("cryptoutil: generating identity %q: %w", name, err)
	}
	return newIdentity(name, &seed), nil
}

func newIdentity(name string, seed *[ed25519.SeedSize]byte) *Identity {
	id := &Identity{Name: name, seed: *seed}
	id.pub = id.key.SetSeed(seed).Public()
	return id
}

// MustIdentity is NewIdentity from crypto/rand, panicking on failure.
func MustIdentity(name string) *Identity {
	id, err := NewIdentity(name, rand.Reader)
	if err != nil {
		panic(err)
	}
	return id
}

// Public returns the verification key.
func (id *Identity) Public() ed25519.PublicKey { return id.pub[:] }

// Seed exports the 32-byte private seed for out-of-band provisioning (e.g.
// handing a CLI customer its enrolled identity). Handle with care.
func (id *Identity) Seed() []byte {
	seed := id.seed
	return seed[:]
}

// IdentityFromSeed reconstructs an identity from a provisioned seed.
func IdentityFromSeed(name string, seed []byte) (*Identity, error) {
	if len(seed) != ed25519.SeedSize {
		return nil, fmt.Errorf("cryptoutil: seed must be %d bytes, got %d", ed25519.SeedSize, len(seed))
	}
	return newIdentity(name, (*[ed25519.SeedSize]byte)(seed)), nil
}

// Sign signs msg with the private key. The signature is the one
// crypto/ed25519.Sign makes, byte for byte, and is the call's one
// allocation.
func (id *Identity) Sign(msg []byte) []byte {
	opSign.Add(1)
	sig := new([ed25519.SignatureSize]byte)
	id.key.Sign(sig, msg)
	return sig[:]
}

// Hash computes the canonical domain-separated hash of a list of fields:
// SHA-256 over tag ‖ len(f1) ‖ f1 ‖ len(f2) ‖ f2 ‖ … . Length prefixes make
// the encoding injective, so H(a‖b) collisions across field boundaries are
// impossible; the tag separates protocol contexts (e.g. "Q1" vs "Q3").
//
// The input is assembled in a stack buffer, or on the heap when it
// outgrows hashStack, and hashed in one call. Nothing keeps tag or fields,
// so callers' []byte(s) conversions stay off the heap.
func Hash(tag string, fields ...[]byte) [32]byte {
	n := 8 + len(tag)
	for _, f := range fields {
		n += 8 + len(f)
	}
	var stack [hashStack]byte
	b := stack[:0]
	if n > hashStack {
		b = make([]byte, 0, n)
	}
	b = binary.BigEndian.AppendUint64(b, uint64(len(tag)))
	b = append(b, tag...)
	for _, f := range fields {
		b = binary.BigEndian.AppendUint64(b, uint64(len(f)))
		b = append(b, f...)
	}
	return sha256.Sum256(b)
}

// hashStack bounds the input Hash assembles on the stack. It holds every
// quote and signed body of an attestation but the first startup evidence of
// a server whose whole measurement log is shipped (DESIGN.md §14).
const hashStack = 1024

// Certificate binds a public key to a subject string for a purpose, signed
// by an issuer. For attestation-key certificates the privacy CA sets the
// subject to an anonymous serial so the certificate does not reveal which
// cloud server is attesting (paper §3.4.2).
type Certificate struct {
	Subject string
	Purpose string
	Key     ed25519.PublicKey
	Issuer  string
	Serial  uint64
	Sig     []byte
}

// certBody returns the digest the issuer signs.
func certBody(c *Certificate) [32]byte {
	var serial [8]byte
	binary.BigEndian.PutUint64(serial[:], c.Serial)
	return Hash("cloudmonatt-cert",
		[]byte(c.Subject), []byte(c.Purpose), c.Key, []byte(c.Issuer), serial[:])
}

// IssueCertificate creates a certificate over key signed by issuer.
func IssueCertificate(issuer *Identity, subject, purpose string, key ed25519.PublicKey, serial uint64) *Certificate {
	c := &Certificate{
		Subject: subject,
		Purpose: purpose,
		Key:     append(ed25519.PublicKey(nil), key...),
		Issuer:  issuer.Name,
		Serial:  serial,
	}
	body := certBody(c)
	c.Sig = issuer.Sign(body[:])
	return c
}

// VerifyCertificate checks the certificate signature under the issuer's
// public key and that the issuer name matches.
func VerifyCertificate(c *Certificate, issuerName string, issuerKey ed25519.PublicKey) error {
	if c == nil {
		return errors.New("cryptoutil: nil certificate")
	}
	if c.Issuer != issuerName {
		return fmt.Errorf("cryptoutil: certificate issued by %q, want %q", c.Issuer, issuerName)
	}
	if body := certBody(c); !Verify(issuerKey, body[:], c.Sig) {
		return errors.New("cryptoutil: certificate signature invalid")
	}
	return nil
}

// ConstEqual compares two byte strings in constant time. Every comparison
// of secret-derived material (keys, quotes, MACs, signatures) must go
// through here: an early-exit compare tells a network observer how many
// leading bytes matched, which is exactly the oracle that makes forged
// quotes cheap to search for. Length mismatch returns false immediately —
// lengths are public protocol constants.
func ConstEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	return subtle.ConstantTimeCompare(a, b) == 1
}

// KeyEqual reports whether two public keys are identical, in constant time.
func KeyEqual(a, b ed25519.PublicKey) bool { return ConstEqual(a, b) }

// ReplayCache remembers recently seen nonces and rejects duplicates. It is
// bounded: when full, the oldest entries are evicted (FIFO), which is safe
// because a replayed nonce old enough to have been evicted also fails the
// session binding of the surrounding protocol. FIFO order lives in a fixed
// ring buffer: the previous `order = order[1:]` slice shift kept the full
// backing array reachable and forced append to re-allocate it over and
// over on the hot nonce-admission path.
type ReplayCache struct {
	mu   sync.Mutex
	seen map[Nonce]struct{}
	ring []Nonce
	head int // ring slot holding the oldest nonce
	n    int // nonces currently held
}

// NewReplayCache creates a cache holding up to capacity nonces.
func NewReplayCache(capacity int) *ReplayCache {
	if capacity <= 0 {
		capacity = 1024
	}
	return &ReplayCache{seen: make(map[Nonce]struct{}, capacity), ring: make([]Nonce, capacity)}
}

// Check records n and reports whether it was fresh (true) or replayed (false).
func (rc *ReplayCache) Check(n Nonce) bool {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if _, dup := rc.seen[n]; dup {
		return false
	}
	if rc.n == len(rc.ring) {
		delete(rc.seen, rc.ring[rc.head])
		rc.ring[rc.head] = n
		rc.head = (rc.head + 1) % len(rc.ring)
	} else {
		rc.ring[(rc.head+rc.n)%len(rc.ring)] = n
		rc.n++
	}
	rc.seen[n] = struct{}{}
	return true
}

// Len returns the number of nonces currently remembered.
func (rc *ReplayCache) Len() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return len(rc.seen)
}
