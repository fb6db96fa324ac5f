package cryptoutil

import (
	"bytes"
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"testing"
)

// TestSignVectors signs every line of testdata/sign.input.gz from its seed:
// the identity must have that line's public key and make its signature.
func TestSignVectors(t *testing.T) {
	seeds, pubs, msgs, sigs := signVectors(t)
	if len(seeds) != 128 {
		t.Fatalf("%d vectors, want 128", len(seeds))
	}
	for i := range seeds {
		id, err := IdentityFromSeed("vector", seeds[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(id.Public(), pubs[i]) {
			t.Fatalf("vector %d: public key %x, want %x", i+1, id.Public(), pubs[i])
		}
		if got := id.Sign(msgs[i]); !bytes.Equal(got, sigs[i]) {
			t.Fatalf("vector %d: signature %x, want %x", i+1, got, sigs[i])
		}
		if !bytes.Equal(id.Seed(), seeds[i]) {
			t.Fatalf("vector %d: Seed() = %x, want %x", i+1, id.Seed(), seeds[i])
		}
	}
}

// signsLikeStdlib fails t unless an identity from seed has crypto/ed25519's
// public key for it and signs msg to the same bytes.
func signsLikeStdlib(t testing.TB, seed, msg []byte) {
	id, err := IdentityFromSeed("fuzz", seed)
	if err != nil {
		t.Fatal(err)
	}
	priv := ed25519.NewKeyFromSeed(seed)
	if pub := priv.Public().(ed25519.PublicKey); !bytes.Equal(id.Public(), pub) {
		t.Fatalf("seed %x: public key %x, crypto/ed25519 says %x", seed, id.Public(), pub)
	}
	if got, want := id.Sign(msg), ed25519.Sign(priv, msg); !bytes.Equal(got, want) {
		t.Fatalf("seed %x, message %x: signature %x, crypto/ed25519 says %x", seed, msg, got, want)
	}
}

func FuzzSignMatchesStdlib(f *testing.F) {
	seeds, _, msgs, _ := signVectors(f)
	for i := range seeds {
		f.Add(seeds[i], msgs[i])
	}
	f.Add(make([]byte, ed25519.SeedSize), []byte{})
	f.Add(bytes.Repeat([]byte{0xff}, ed25519.SeedSize), bytes.Repeat([]byte{0xff}, 4096))
	f.Fuzz(func(t *testing.T, seed, msg []byte) {
		if len(seed) != ed25519.SeedSize {
			return
		}
		signsLikeStdlib(t, seed, msg)
	})
}

// signSink keeps TestSignAllocs' signatures on the heap, where a caller's
// would be.
var signSink []byte

// TestSignAllocs pins that a signature allocates only the returned slice.
func TestSignAllocs(t *testing.T) {
	id := MustIdentity("alloc")
	msg := bytes.Repeat([]byte{0x5a}, 200)
	if n := testing.AllocsPerRun(100, func() { signSink = id.Sign(msg) }); n != 1 {
		t.Errorf("Identity.Sign allocates %v times, want 1 (the signature)", n)
	}
}

// x25519Vector is RFC 7748 §6.1's Alice, as crypto/ecdh's TestVectors
// carries it.
var x25519Vector = struct{ priv, pub, peer, secret []byte }{
	priv:   fromHex("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a"),
	pub:    fromHex("8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"),
	peer:   fromHex("de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"),
	secret: fromHex("4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"),
}

// TestEphemeralMatchesStdlib compares public keys and shared secrets with
// crypto/ecdh's on the RFC 7748 vector and on 512 seeded private keys (the
// all-zero and all-one keys among them), and checks that the two peers of
// crypto/ecdh's TestX25519Failure are rejected.
func TestEphemeralMatchesStdlib(t *testing.T) {
	e, err := NewEphemeral(bytes.NewReader(x25519Vector.priv))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e.Public(), x25519Vector.pub) {
		t.Fatalf("vector public key %x, want %x", e.Public(), x25519Vector.pub)
	}
	if secret, err := e.ECDH(x25519Vector.peer); err != nil || !bytes.Equal(secret[:], x25519Vector.secret) {
		t.Fatalf("vector secret %x (%v), want %x", secret, err, x25519Vector.secret)
	}

	keys := [][]byte{make([]byte, x25519Size), bytes.Repeat([]byte{0xff}, x25519Size)}
	for n := uint64(0); n < 510; n++ {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], n)
		k := sha256.Sum256(b[:])
		keys = append(keys, k[:])
	}
	peer, err := ecdh.X25519().NewPrivateKey(x25519Vector.peer)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		e, err := NewEphemeral(bytes.NewReader(k))
		if err != nil {
			t.Fatal(err)
		}
		want, err := ecdh.X25519().NewPrivateKey(k)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(e.Public(), want.PublicKey().Bytes()) {
			t.Fatalf("key %x: public key %x, crypto/ecdh says %x", k, e.Public(), want.PublicKey().Bytes())
		}
		got, err := e.ECDH(peer.PublicKey().Bytes())
		if err != nil {
			t.Fatal(err)
		}
		wantSecret, err := want.ECDH(peer.PublicKey())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:], wantSecret) {
			t.Fatalf("key %x: secret %x, crypto/ecdh says %x", k, got, wantSecret)
		}
	}

	for name, bad := range map[string][]byte{
		"identity point":  fromHex("0000000000000000000000000000000000000000000000000000000000000000"),
		"low order point": fromHex("e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800"),
		"short key":       make([]byte, x25519Size-1),
	} {
		if secret, err := e.ECDH(bad); err == nil || secret != [x25519Size]byte{} {
			t.Errorf("%s: ECDH = %x, %v; want an error and no secret", name, secret, err)
		}
	}
}

// TestEphemeralCountsECDH pins one ECDH tick per key generated and per
// shared secret computed, and none for a peer key of the wrong length.
func TestEphemeralCountsECDH(t *testing.T) {
	before := Ops()
	e, err := NewEphemeral(bytes.NewReader(x25519Vector.priv))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ECDH(x25519Vector.peer); err != nil {
		t.Fatal(err)
	}
	e.ECDH(x25519Vector.peer[:8])
	if got := Ops().Sub(before); got != (OpCounts{ECDH: 2}) {
		t.Fatalf("a key and a secret counted %+v, want 2 ECDH", got)
	}
}

// BenchmarkSign prints a signature's cost beside crypto/ed25519.Sign's on
// the same key and message; read the first against the second of the same
// run.
func BenchmarkSign(b *testing.B) {
	id := MustIdentity("bench")
	priv := ed25519.NewKeyFromSeed(id.Seed())
	msg := bytes.Repeat([]byte{0x5a}, 200)
	b.Run("identity", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			signSink = id.Sign(msg)
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			signSink = ed25519.Sign(priv, msg)
		}
	})
}

// BenchmarkEphemeral prints an X25519 key generation and a shared secret
// beside crypto/ecdh's.
func BenchmarkEphemeral(b *testing.B) {
	priv := bytes.Repeat([]byte{0x77}, x25519Size)
	b.Run("keygen", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			NewEphemeral(bytes.NewReader(priv))
		}
	})
	b.Run("keygen-stdlib", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ecdh.X25519().NewPrivateKey(priv)
		}
	})
	e, _ := NewEphemeral(bytes.NewReader(priv))
	b.Run("secret", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.ECDH(x25519Vector.peer)
		}
	})
	k, _ := ecdh.X25519().NewPrivateKey(priv)
	peer, _ := ecdh.X25519().NewPublicKey(x25519Vector.peer)
	b.Run("secret-stdlib", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k.ECDH(peer)
		}
	})
}

// TestIdentityAllocs pins that making an identity from a seed allocates
// the identity and nothing else: its public key lives inside it.
func TestIdentityAllocs(t *testing.T) {
	seed := make([]byte, ed25519.SeedSize)
	var id *Identity
	if n := testing.AllocsPerRun(100, func() { id, _ = IdentityFromSeed("alloc", seed) }); n != 1 {
		t.Errorf("IdentityFromSeed allocates %v times, want 1", n)
	}
	if !bytes.Equal(id.Public(), ed25519.NewKeyFromSeed(seed).Public().(ed25519.PublicKey)) {
		t.Fatal("public key differs from crypto/ed25519's")
	}
}
