package cryptoutil

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"testing/quick"
)

func TestIdentitySignVerify(t *testing.T) {
	id := MustIdentity("alice")
	msg := []byte("hello cloud")
	sig := id.Sign(msg)
	if !Verify(id.Public(), msg, sig) {
		t.Fatal("own signature does not verify")
	}
	if Verify(id.Public(), append(msg, 'x'), sig) {
		t.Fatal("signature verified over modified message")
	}
	other := MustIdentity("bob")
	if Verify(other.Public(), msg, sig) {
		t.Fatal("signature verified under wrong key")
	}
	if Verify(nil, msg, sig) {
		t.Fatal("signature verified under nil key")
	}
}

func TestHashInjective(t *testing.T) {
	// Field-boundary attack: ("ab","c") vs ("a","bc") must differ.
	a := Hash("t", []byte("ab"), []byte("c"))
	b := Hash("t", []byte("a"), []byte("bc"))
	if a == b {
		t.Fatal("length-prefixed hash collided across field boundaries")
	}
	// Tag separation.
	if Hash("t1", []byte("x")) == Hash("t2", []byte("x")) {
		t.Fatal("different tags produced identical hashes")
	}
	// Field count matters.
	if Hash("t", []byte("x")) == Hash("t", []byte("x"), nil) {
		t.Fatal("appending an empty field did not change the hash")
	}
}

// TestHashEncoding pins the bytes Hash digests — len(tag) ‖ tag ‖ len(f) ‖
// f … with 8-byte big-endian lengths — on both sides of the stack buffer,
// and one digest as a fixed vector: every signed quote rests on it.
func TestHashEncoding(t *testing.T) {
	want := "58fb0ed1359fc767ae7a0512c6d3e7af9ee5dff440d69f663d178f69739897a3"
	if got := Hash("Q1", []byte("vm-0001"), []byte("startup-integrity"), nil, make([]byte, 16)); hex.EncodeToString(got[:]) != want {
		t.Fatalf("Hash vector = %x, want %s", got, want)
	}
	for _, size := range []int{0, hashStack - 8 - 2 - 8, hashStack - 8 - 2 - 8 + 1, 3 * hashStack} {
		f := bytes.Repeat([]byte{0xa5}, size)
		var enc []byte
		enc = binary.BigEndian.AppendUint64(enc, 2)
		enc = append(enc, "Q3"...)
		enc = binary.BigEndian.AppendUint64(enc, uint64(size))
		enc = append(enc, f...)
		if got := Hash("Q3", f); got != sha256.Sum256(enc) {
			t.Fatalf("%d-byte field: Hash differs from SHA-256 of its encoding", size)
		}
	}
}

// TestHashAllocFree: an input that fits the stack buffer hashes without a
// heap allocation, and so do the callers' string-to-[]byte conversions.
func TestHashAllocFree(t *testing.T) {
	vid, prop := "vm-0001", "startup-integrity"
	var n2 Nonce
	verdict := make([]byte, 120)
	if a := testing.AllocsPerRun(100, func() {
		_ = Hash("Q2", []byte(vid), []byte("cloud-server-0"), []byte(prop), verdict, n2[:])
	}); a != 0 {
		t.Fatalf("Hash of a quote-sized input: %v allocs, want 0", a)
	}
}

func TestQuickHashDeterminismAndSensitivity(t *testing.T) {
	f := func(a, b []byte) bool {
		h1 := Hash("q", a, b)
		h2 := Hash("q", a, b)
		if h1 != h2 {
			return false
		}
		if !bytes.Equal(a, b) {
			if Hash("q", a) == Hash("q", b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCertificateIssueVerify(t *testing.T) {
	ca := MustIdentity("pca")
	subject := MustIdentity("server-1")
	cert := IssueCertificate(ca, "anon-7", "attest", subject.Public(), 7)
	if err := VerifyCertificate(cert, "pca", ca.Public()); err != nil {
		t.Fatalf("valid certificate rejected: %v", err)
	}
	if err := VerifyCertificate(cert, "other-ca", ca.Public()); err == nil {
		t.Fatal("certificate accepted under wrong issuer name")
	}
	rogue := MustIdentity("rogue")
	if err := VerifyCertificate(cert, "pca", rogue.Public()); err == nil {
		t.Fatal("certificate accepted under wrong issuer key")
	}
	cert.Subject = "anon-8"
	if err := VerifyCertificate(cert, "pca", ca.Public()); err == nil {
		t.Fatal("tampered certificate accepted")
	}
	if err := VerifyCertificate(nil, "pca", ca.Public()); err == nil {
		t.Fatal("nil certificate accepted")
	}
}

func TestNonceUniqueness(t *testing.T) {
	seen := make(map[Nonce]bool)
	for i := 0; i < 1000; i++ {
		n, err := NewNonce(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if seen[n] {
			t.Fatal("duplicate nonce from crypto/rand")
		}
		seen[n] = true
	}
}

func TestReplayCache(t *testing.T) {
	rc := NewReplayCache(4)
	n1, n2 := MustNonce(), MustNonce()
	if !rc.Check(n1) {
		t.Fatal("fresh nonce rejected")
	}
	if rc.Check(n1) {
		t.Fatal("replayed nonce accepted")
	}
	if !rc.Check(n2) {
		t.Fatal("second fresh nonce rejected")
	}
}

func TestReplayCacheEviction(t *testing.T) {
	rc := NewReplayCache(3)
	var ns []Nonce
	for i := 0; i < 5; i++ {
		n := MustNonce()
		ns = append(ns, n)
		if !rc.Check(n) {
			t.Fatal("fresh nonce rejected")
		}
	}
	if rc.Len() != 3 {
		t.Fatalf("cache len %d, want 3", rc.Len())
	}
	// Oldest were evicted: re-checking them succeeds (acceptable: protocol
	// layers bind nonces to sessions), but recent ones are still blocked.
	if rc.Check(ns[4]) {
		t.Fatal("recent nonce accepted twice")
	}
}

func TestReplayCacheZeroCapacityDefaults(t *testing.T) {
	rc := NewReplayCache(0)
	if !rc.Check(MustNonce()) {
		t.Fatal("default-capacity cache rejected a fresh nonce")
	}
}

func TestKeyEqual(t *testing.T) {
	a, b := MustIdentity("a"), MustIdentity("b")
	if !KeyEqual(a.Public(), a.Public()) {
		t.Fatal("key not equal to itself")
	}
	if KeyEqual(a.Public(), b.Public()) {
		t.Fatal("distinct keys reported equal")
	}
}
