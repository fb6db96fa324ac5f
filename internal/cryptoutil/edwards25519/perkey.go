// Per-key verification. Unlike the rest of this package, this file is not
// copied from the Go tree: it checks Ed25519 signatures exactly as
// crypto/ed25519.Verify does, but against tables precomputed once per key.

package edwards25519

import (
	"crypto/sha512"
	"crypto/subtle"
	"sync"
)

// A 256-digit NAF is cut into chunks of width digits each. A point P is
// tabulated as 2^(width·j)·P for j < chunks, so that
//
//	Σ_i naf[i]·2^i·P = Σ_{i<width} 2^i · Σ_j naf[width·j+i]·(2^(width·j)·P)
//
// and a double-scalar multiplication takes width doublings instead of 256.
const (
	chunks = 8
	width  = 256 / chunks
)

// A VerifyKey is a decoded Ed25519 public key A with NAF-5 tables of
// 2^(32j)·(−A). It is 10 KiB; the zero value is not valid until Set.
type VerifyKey struct {
	a      [32]byte                // A as encoded, hashed into k
	tables [chunks]nafLookupTable5 // odd multiples 1…15 of 2^(32j)·(−A)
}

// Set decodes pub as crypto/ed25519 does and builds v's tables. If pub is
// not a valid point encoding, Set returns an error and leaves v unchanged.
func (v *VerifyKey) Set(pub []byte) error {
	var p Point
	if _, err := p.SetBytes(pub); err != nil {
		return err
	}
	p.Negate(&p)
	copy(v.a[:], pub)
	for j := range v.tables {
		if j > 0 {
			p.timesChunk()
		}
		v.tables[j].FromP3(&p)
	}
	return nil
}

// timesChunk sets p = 2^width·p.
func (p *Point) timesChunk() {
	var p2 projP2
	var p1 projP1xP1
	p2.FromP3(p)
	for i := 0; i < width; i++ {
		p1.Double(&p2)
		p2.FromP1xP1(&p1)
	}
	p.fromP1xP1(&p1)
}

// baseNafTables returns NAF-8 tables of 2^(32j)·B, 60 KiB, built on first
// use.
func baseNafTables() *[chunks]nafLookupTable8 {
	basePrecomp.once.Do(func() {
		p := NewGeneratorPoint()
		for j := range basePrecomp.tables {
			if j > 0 {
				p.timesChunk()
			}
			basePrecomp.tables[j].FromP3(p)
		}
	})
	return &basePrecomp.tables
}

var basePrecomp struct {
	tables [chunks]nafLookupTable8
	once   sync.Once
}

// Verify reports whether sig is a valid signature of msg under v. It
// accepts exactly what crypto/ed25519.Verify accepts: a 64-byte signature
// with sig[63]&224 == 0 and a canonical S, k = SHA-512(R ‖ A ‖ msg) mod l,
// and R equal to the encoding of [S]B − [k]A.
//
// Verify only reads v, so any number of goroutines may call it at once.
func (v *VerifyKey) Verify(msg, sig []byte) bool {
	if len(sig) != 64 || sig[63]&224 != 0 {
		return false
	}
	h := sha512.New()
	h.Write(sig[:32])
	h.Write(v.a[:])
	h.Write(msg)
	var digest [64]byte
	var k, s Scalar
	if _, err := k.SetUniformBytes(h.Sum(digest[:0])); err != nil {
		panic("edwards25519: internal error: setting scalar failed")
	}
	if _, err := s.SetCanonicalBytes(sig[32:]); err != nil {
		return false
	}
	var r Point
	v.doubleScalarBaseMult(&r, &k, &s)
	var enc [32]byte
	return subtle.ConstantTimeCompare(sig[:32], r.bytes(&enc)) == 1
}

// doubleScalarBaseMult sets out = k·(−A) + s·B in variable time. It walks
// the same NAF digits as the source's VarTimeDoubleScalarBaseMult (deleted
// here, unused), eight chunks at a time.
func (v *VerifyKey) doubleScalarBaseMult(out *Point, k, s *Scalar) {
	base := baseNafTables()
	kNaf := k.nonAdjacentForm(5)
	sNaf := s.nonAdjacentForm(8)

	var multA projCached
	var multB affineCached
	var tmp1 projP1xP1
	var tmp2 projP2
	tmp2.Zero()
	for i := width - 1; i >= 0; i-- {
		tmp1.Double(&tmp2)
		for j := 0; j < chunks; j++ {
			if d := kNaf[width*j+i]; d > 0 {
				out.fromP1xP1(&tmp1)
				v.tables[j].SelectInto(&multA, d)
				tmp1.Add(out, &multA)
			} else if d < 0 {
				out.fromP1xP1(&tmp1)
				v.tables[j].SelectInto(&multA, -d)
				tmp1.Sub(out, &multA)
			}
			if d := sNaf[width*j+i]; d > 0 {
				out.fromP1xP1(&tmp1)
				base[j].SelectInto(&multB, d)
				tmp1.AddAffine(out, &multB)
			} else if d < 0 {
				out.fromP1xP1(&tmp1)
				base[j].SelectInto(&multB, -d)
				tmp1.SubAffine(out, &multB)
			}
		}
		tmp2.FromP1xP1(&tmp1)
	}
	out.fromP2(&tmp2)
}
