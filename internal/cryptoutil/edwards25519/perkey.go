// Per-key verification. Unlike the rest of this package, this file is not
// copied from the Go tree: it checks Ed25519 signatures exactly as
// crypto/ed25519.Verify does, but against tables precomputed once per key.

package edwards25519

import (
	"crypto/sha512"
	"crypto/subtle"
	"encoding/binary"
	"math/bits"
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

// doubleScalarBaseMult sets out = k·(−A) + s·B in variable time. It adds
// the same NAF digits as the source's VarTimeDoubleScalarBaseMult (deleted
// here, unused), eight chunks at a time, visiting only the non-zero ones.
func (v *VerifyKey) doubleScalarBaseMult(out *Point, k, s *Scalar) {
	base := baseNafTables()
	var kNaf, sNaf nafRows
	kNaf.recode(k, 5)
	sNaf.recode(s, 8)

	var tmp1 projP1xP1
	var tmp2 projP2
	tmp2.Zero()
	for i := width - 1; i >= 0; i-- {
		tmp1.Double(&tmp2)
		for m := kNaf.rows[i]; m != 0; m &= m - 1 {
			j := bits.TrailingZeros8(m)
			out.fromP1xP1(&tmp1)
			if d := kNaf.digits[width*j+i]; d > 0 {
				tmp1.Add(out, &v.tables[j].points[d/2])
			} else {
				tmp1.Sub(out, &v.tables[j].points[-d/2])
			}
		}
		for m := sNaf.rows[i]; m != 0; m &= m - 1 {
			j := bits.TrailingZeros8(m)
			out.fromP1xP1(&tmp1)
			if d := sNaf.digits[width*j+i]; d > 0 {
				tmp1.AddAffine(out, &base[j].points[d/2])
			} else {
				tmp1.SubAffine(out, &base[j].points[-d/2])
			}
		}
		tmp2.FromP1xP1(&tmp1)
	}
	out.fromP2(&tmp2)
}

// nafRows is a scalar's width-w NAF, digit i of weight 2^i, with bit j of
// rows[i] set exactly when digit width·j+i, row i of chunk j, is non-zero.
type nafRows struct {
	digits [256]int8
	rows   [width]uint8
}

// recode sets r to the width-w NAF of s, 2 ≤ w ≤ 8: the digits of the
// source's Scalar.nonAdjacentForm, which perkey_test.go keeps as its
// oracle. Between non-zero digits it skips, a word at a time, the bits that
// equal the pending carry, since each of them makes an even window and so
// a zero digit.
func (r *nafRows) recode(s *Scalar, w uint) {
	var b [32]byte
	s.bytes(&b)
	var words [5]uint64
	for i := range 4 {
		words[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	*r = nafRows{}
	span := uint64(1) << w
	carry := uint64(0)
	for pos := uint(0); pos < 256; {
		x := words[pos/64]
		if carry != 0 {
			x = ^x
		}
		if x >>= pos % 64; x == 0 {
			pos = pos&^63 + 64 // no digit in the rest of this word
			continue
		}
		pos += uint(bits.TrailingZeros64(x))
		window := carry + (words[pos/64]>>(pos%64)|words[pos/64+1]<<(64-pos%64))&(span-1)
		if window < span/2 {
			carry = 0
			r.digits[pos] = int8(window)
		} else {
			carry = 1
			r.digits[pos] = int8(window) - int8(span)
		}
		r.rows[pos%width] |= 1 << (pos / width)
		pos += w
	}
}
