// Signing and key minting. Like perkey.go, this file is not copied from the
// Go tree: it produces exactly the bytes crypto/ed25519 and crypto/ecdh
// produce, but from a private key expanded once and with one encoding of R
// per signature.

package edwards25519

import (
	"crypto/sha512"

	"cloudmonatt/internal/cryptoutil/edwards25519/field"
)

// A SignKey is an expanded Ed25519 private key: the clamped scalar s, the
// nonce prefix and the encoded public key A, derived from a seed once
// rather than on every signature. The zero value is not valid until
// SetSeed.
type SignKey struct {
	s      Scalar
	prefix [32]byte
	a      [32]byte
}

// SetSeed expands seed as crypto/ed25519.NewKeyFromSeed does: SHA-512 of
// the seed, its clamped first half is s, its second half the prefix, and
// A = [s]B.
func (k *SignKey) SetSeed(seed *[32]byte) *SignKey {
	h := sha512.Sum512(seed[:])
	if _, err := k.s.SetBytesWithClamping(h[:32]); err != nil {
		panic("edwards25519: internal error: setting scalar failed")
	}
	copy(k.prefix[:], h[32:])
	var a Point
	a.scalarBaseMult(&k.s)
	a.bytes(&k.a)
	return k
}

// Public returns the encoded public key A.
func (k *SignKey) Public() [32]byte { return k.a }

// Sign writes the Ed25519 signature of msg to sig: the steps of the
// standard library's signWithDom for pure Ed25519, with R encoded once
// into the signature and hashed from there. Every step on secret data
// (r, s and [r]B) is the copied constant-time code.
//
// Sign only reads k, so any number of goroutines may call it at once.
func (k *SignKey) Sign(sig *[64]byte, msg []byte) {
	h := sha512.New()
	h.Write(k.prefix[:])
	h.Write(msg)
	var digest [64]byte
	var r, c, s Scalar
	if _, err := r.SetUniformBytes(h.Sum(digest[:0])); err != nil {
		panic("edwards25519: internal error: setting scalar failed")
	}
	var R Point
	encR := R.scalarBaseMult(&r).bytes((*[32]byte)(sig[:32]))

	h.Reset()
	h.Write(encR)
	h.Write(k.a[:])
	h.Write(msg)
	if _, err := c.SetUniformBytes(h.Sum(digest[:0])); err != nil {
		panic("edwards25519: internal error: setting scalar failed")
	}
	s.MultiplyAdd(&c, &k.s, &r)
	s.bytes((*[32]byte)(sig[32:]))
}

// scalarBaseMult sets v = x·B, where B is the canonical generator, in
// constant time, and returns v. It is the source's ScalarBaseMult (deleted
// here) with each of its 64 table lookups made by selectAffine, which on
// amd64 reads a table's eight entries with SSE2 where the copied SelectInto
// selects them one field element at a time. It writes x = Σ x_i·16^i,
// −8 ≤ x_i ≤ 8, adds the odd digits' x_i·16^(i−1)·B from table i/2,
// multiplies by 16, then adds the even digits'.
func (v *Point) scalarBaseMult(x *Scalar) *Point {
	table := basepointTable()
	digits := x.signedRadix16()

	var multiple affineCached
	var tmp1 projP1xP1
	var tmp2 projP2
	v.Set(NewIdentityPoint())
	for i := 1; i < 64; i += 2 {
		table[i/2].selectAffine(&multiple, digits[i])
		v.fromP1xP1(tmp1.AddAffine(v, &multiple))
	}
	tmp2.FromP3(v)
	for range 3 {
		tmp2.FromP1xP1(tmp1.Double(&tmp2))
	}
	v.fromP1xP1(tmp1.Double(&tmp2))
	for i := 0; i < 64; i += 2 {
		table[i/2].selectAffine(&multiple, digits[i])
		v.fromP1xP1(tmp1.AddAffine(v, &multiple))
	}
	return v
}

// X25519Base sets dst to X25519(scalar, 9), the public key of an X25519
// private key, as crypto/ecdh computes it. The ladder's clamping and
// RFC 8032's agree, and the clamped scalar is a multiple of the cofactor,
// so [scalar]B on the constant-time base table is the same point; its
// Montgomery u-coordinate is (Z+Y)/(Z−Y).
func X25519Base(dst, scalar *[32]byte) {
	var s Scalar
	if _, err := s.SetBytesWithClamping(scalar[:]); err != nil {
		panic("edwards25519: internal error: setting scalar failed")
	}
	var p Point
	p.scalarBaseMult(&s)
	var u, zMinusY field.Element
	u.Add(&p.z, &p.y)
	zMinusY.Subtract(&p.z, &p.y)
	u.Multiply(&u, zMinusY.Invert(&zMinusY))
	copy(dst[:], u.Bytes())
}

// X25519 sets dst to X25519(scalar, point) on the Montgomery ladder copied
// from crypto/ecdh. An all-zero dst means point was of low order; the
// caller rejects it, as crypto/ecdh does.
func X25519(dst, scalar, point *[32]byte) {
	x25519ScalarMult(dst[:], scalar[:], point[:])
}
