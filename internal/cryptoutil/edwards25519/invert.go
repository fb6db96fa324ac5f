// Variable-time inversion modulo p = 2^255 − 19. Like perkey.go, this file
// is not copied from the Go tree. It is the Bernstein–Yang safegcd
// ("Fast constant-time gcd computation and modular inversion", 2019) with
// 62-bit divsteps, after libsecp256k1's secp256k1_modinv64_var (MIT
// licence), specialised to p. Its running time depends on its input, so it
// may invert public values only: its one caller, perkey.go, inverts the Z
// of [S]B − [k]A, which is computed from a key, a message and a signature.

package edwards25519

import (
	"encoding/binary"
	"math/bits"

	"cloudmonatt/internal/cryptoutil/edwards25519/field"
)

// A signed62 is the integer Σ v[i]·2^(62i). Limbs are signed; between
// steps every limb but the top one is in [0, 2^62).
type signed62 [5]int64

const m62 = 1<<62 - 1

// modulus is p as a signed62: −19 + 128·2^248. Limbs 1…3 are zero, so the
// updates below skip them.
var modulus = signed62{-19, 0, 0, 0, 128}

// pInv62 is p^−1 mod 2^62.
const pInv62 = 0x39435e50d79435e5

// A trans is the 2×2 matrix of 62 divsteps, scaled by 2^62:
// [f', g'] = [u v; q r]·[f, g] / 2^62.
type trans struct{ u, v, q, r int64 }

// invertVarTime sets out = 1/z mod p and returns out; 0 inverts to 0, as
// in Invert. It runs in variable time.
func invertVarTime(out, z *field.Element) *field.Element {
	b := z.Bytes()
	w0 := binary.LittleEndian.Uint64(b[0:8])
	w1 := binary.LittleEndian.Uint64(b[8:16])
	w2 := binary.LittleEndian.Uint64(b[16:24])
	w3 := binary.LittleEndian.Uint64(b[24:32])
	g := signed62{
		int64(w0 & m62),
		int64((w0>>62 | w1<<2) & m62),
		int64((w1>>60 | w2<<4) & m62),
		int64((w2>>58 | w3<<6) & m62),
		int64(w3 >> 56),
	}
	d, e, f := signed62{}, signed62{1}, modulus
	eta := int64(-1) // −delta; delta starts at 1
	n := len(f)      // limbs of f and g still in use
	for {
		var t trans
		eta, t = divsteps62(eta, uint64(f[0]), uint64(g[0]))
		updateDE(&d, &e, &t)
		updateFG(n, &f, &g, &t)
		if g[0] == 0 {
			var rest int64
			for _, l := range g[1:n] {
				rest |= l
			}
			if rest == 0 {
				break
			}
		}
		// Drop the top limb once it is 0 or −1 in both f and g, folding
		// its sign into the limb below.
		fn, gn := f[n-1], g[n-1]
		if n > 1 && (fn^(fn>>63))|(gn^(gn>>63)) == 0 {
			f[n-2] |= int64(uint64(fn) << 62)
			g[n-2] |= int64(uint64(gn) << 62)
			n--
		}
	}
	// g is 0, so f is ±gcd(p, z) = ±1 and d is ±1/z.
	normalize(&d, f[n-1])
	var buf [32]byte
	binary.LittleEndian.PutUint64(buf[0:8], uint64(d[0])|uint64(d[1])<<62)
	binary.LittleEndian.PutUint64(buf[8:16], uint64(d[1])>>2|uint64(d[2])<<60)
	binary.LittleEndian.PutUint64(buf[16:24], uint64(d[2])>>4|uint64(d[3])<<58)
	binary.LittleEndian.PutUint64(buf[24:32], uint64(d[3])>>6|uint64(d[4])<<56)
	if _, err := out.SetBytes(buf[:]); err != nil {
		panic("edwards25519: internal error: setting field element failed")
	}
	return out
}

// divsteps62 runs 62 divsteps on the low 64 bits of f and g, f odd, and
// returns the new eta and their matrix. It divides out whole runs of zero
// bits at once and cancels up to six bits of g per step.
func divsteps62(eta int64, f, g uint64) (int64, trans) {
	u, v, q, r := uint64(1), uint64(0), uint64(0), uint64(1)
	i := 62
	for {
		// The sentinel bit stops the count at the divsteps left.
		zeros := bits.TrailingZeros64(g | ^uint64(0)<<i)
		g >>= zeros
		u <<= zeros
		v <<= zeros
		eta -= int64(zeros)
		i -= zeros
		if i == 0 {
			break
		}
		// f and g are odd. Add the multiple w of f to g that clears its
		// low bits, at most i of them and at most eta+1 (after which eta
		// changes sign again).
		var w, mask uint64
		if eta < 0 {
			eta = -eta
			f, g = g, -f
			u, q = q, -u
			v, r = r, -v
			mask = (^uint64(0) >> (64 - min(int(eta)+1, i))) & 63
			w = (f * g * (f*f - 2)) & mask
		} else {
			mask = (^uint64(0) >> (64 - min(int(eta)+1, i))) & 15
			w = f + (f+1)&4<<1
			w = (-w * g) & mask
		}
		g += f * w
		q += u * w
		r += v * w
	}
	return eta, trans{int64(u), int64(v), int64(q), int64(r)}
}

// updateDE sets [d, e] = t·[d, e] / 2^62 mod p, adding the multiple of p
// that makes the division exact and keeps both in (−2p, p).
func updateDE(d, e *signed62, t *trans) {
	u, v, q, r := t.u, t.v, t.q, t.r
	sd, se := d[4]>>63, e[4]>>63
	md := u&sd + v&se
	me := q&sd + r&se
	var cd, ce acc
	cd.mulAdd(u, d[0])
	cd.mulAdd(v, e[0])
	ce.mulAdd(q, d[0])
	ce.mulAdd(r, e[0])
	md -= int64((pInv62*cd.lo + uint64(md)) & m62)
	me -= int64((pInv62*ce.lo + uint64(me)) & m62)
	cd.mulAdd(modulus[0], md)
	ce.mulAdd(modulus[0], me)
	cd.next()
	ce.next()
	for i := 1; i < 4; i++ {
		cd.mulAdd(u, d[i])
		cd.mulAdd(v, e[i])
		ce.mulAdd(q, d[i])
		ce.mulAdd(r, e[i])
		d[i-1] = cd.next()
		e[i-1] = ce.next()
	}
	cd.mulAdd(u, d[4])
	cd.mulAdd(v, e[4])
	ce.mulAdd(q, d[4])
	ce.mulAdd(r, e[4])
	cd.mulAdd(modulus[4], md)
	ce.mulAdd(modulus[4], me)
	d[3] = cd.next()
	e[3] = ce.next()
	d[4] = int64(cd.lo)
	e[4] = int64(ce.lo)
}

// updateFG sets [f, g] = t·[f, g] / 2^62 on their low n limbs.
func updateFG(n int, f, g *signed62, t *trans) {
	u, v, q, r := t.u, t.v, t.q, t.r
	var cf, cg acc
	cf.mulAdd(u, f[0])
	cf.mulAdd(v, g[0])
	cg.mulAdd(q, f[0])
	cg.mulAdd(r, g[0])
	cf.next()
	cg.next()
	for i := 1; i < n; i++ {
		cf.mulAdd(u, f[i])
		cf.mulAdd(v, g[i])
		cg.mulAdd(q, f[i])
		cg.mulAdd(r, g[i])
		f[i-1] = cf.next()
		g[i-1] = cg.next()
	}
	f[n-1] = int64(cf.lo)
	g[n-1] = int64(cg.lo)
}

// normalize brings x from (−2p, p) to [0, p), negated if sign < 0.
func normalize(x *signed62, sign int64) {
	x.addIfNegative()
	neg := sign >> 63
	for i := range x {
		x[i] = (x[i] ^ neg) - neg
	}
	x.carry()
	x.addIfNegative()
	x.carry()
}

// addIfNegative adds p to x if x is negative.
func (x *signed62) addIfNegative() {
	neg := x[4] >> 63
	for i := range x {
		x[i] += modulus[i] & neg
	}
}

// carry brings limbs 0…3 into [0, 2^62).
func (x *signed62) carry() {
	for i := 0; i < 4; i++ {
		x[i+1] += x[i] >> 62
		x[i] &= m62
	}
}

// An acc is a signed 128-bit accumulator.
type acc struct{ lo, hi uint64 }

// mulAdd adds a·b to c.
func (c *acc) mulAdd(a, b int64) {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	hi -= uint64(a>>63)&uint64(b) + uint64(b>>63)&uint64(a)
	var carry uint64
	c.lo, carry = bits.Add64(c.lo, lo, 0)
	c.hi += hi + carry
}

// next returns c's low 62 bits and shifts c right by 62, keeping its sign.
func (c *acc) next() int64 {
	l := int64(c.lo & m62)
	c.lo = c.lo>>62 | c.hi<<2
	c.hi = uint64(int64(c.hi) >> 62)
	return l
}
