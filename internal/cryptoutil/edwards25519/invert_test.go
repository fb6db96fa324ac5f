package edwards25519

import (
	"encoding/binary"
	"math/big"
	"math/rand"
	"testing"
	"unsafe"

	"cloudmonatt/internal/cryptoutil/edwards25519/field"
)

// fromLimbs returns the element l[0] + l[1]·2^51 + … + l[4]·2^204, limbs
// as they are, reduced or not. field.Element is those five uint64 limbs in
// that order, and field makes unreduced ones only in its own arithmetic.
func fromLimbs(l [5]uint64) field.Element {
	return *(*field.Element)(unsafe.Pointer(&l))
}

// fromInt returns x mod 2^255 read through SetBytes, which keeps values of
// p and above unreduced.
func fromInt(x *big.Int) field.Element {
	var le [32]byte
	x.FillBytes(le[:])
	for i, j := 0, len(le)-1; i < j; i, j = i+1, j-1 {
		le[i], le[j] = le[j], le[i]
	}
	var e field.Element
	if _, err := e.SetBytes(le[:]); err != nil {
		panic(err)
	}
	return e
}

// unreducedLimbs draws limbs of up to 52 bits, as field's Generate does,
// half of them from edge values around 2^51 and 19.
func unreducedLimbs(r *rand.Rand) [5]uint64 {
	edge := []uint64{0, 1, 18, 19, 1<<51 - 20, 1<<51 - 19, 1<<51 - 1, 1 << 51, 1<<52 - 19, 1<<52 - 1}
	var l [5]uint64
	for i := range l {
		if r.Intn(2) == 0 {
			l[i] = edge[r.Intn(len(edge))]
		} else {
			l[i] = r.Uint64() & (1<<52 - 1)
		}
	}
	return l
}

// edgeElements are 0, 1, 2, 19, (p−1)/2, p−2, p−1 and 2^254, and the
// non-canonical encodings p, p+1 and 2^255−1.
func edgeElements() []field.Element {
	one := big.NewInt(1)
	p := new(big.Int).Sub(new(big.Int).Lsh(one, 255), big.NewInt(19))
	xs := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(19),
		new(big.Int).Rsh(p, 1),
		new(big.Int).Sub(p, big.NewInt(2)),
		new(big.Int).Sub(p, one),
		new(big.Int).Lsh(one, 254),
		p,
		new(big.Int).Add(p, one),
		new(big.Int).Sub(new(big.Int).Lsh(one, 255), one),
	}
	es := make([]field.Element, len(xs))
	for i, x := range xs {
		es[i] = fromInt(x)
	}
	return es
}

// checkInverse fails t unless invertVarTime and Invert agree on z.
func checkInverse(t *testing.T, z field.Element) {
	t.Helper()
	var want, got field.Element
	want.Invert(&z)
	invertVarTime(&got, &z)
	if got.Equal(&want) != 1 {
		t.Fatalf("1/%x: invertVarTime gives %x, Invert %x", z.Bytes(), got.Bytes(), want.Bytes())
	}
}

func TestInvertVarTimeMatchesInvert(t *testing.T) {
	if got, want := fromLimbs([5]uint64{19, 1, 0, 0, 0}), fromInt(big.NewInt(19+1<<51)); got.Equal(&want) != 1 {
		t.Fatalf("fromLimbs reads %x, want %x: field.Element's layout changed", got.Bytes(), want.Bytes())
	}
	for _, z := range edgeElements() {
		checkInverse(t, z)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		var b [32]byte
		binary.LittleEndian.PutUint64(b[0:], r.Uint64())
		binary.LittleEndian.PutUint64(b[8:], r.Uint64())
		binary.LittleEndian.PutUint64(b[16:], r.Uint64())
		binary.LittleEndian.PutUint64(b[24:], r.Uint64())
		var z field.Element
		if _, err := z.SetBytes(b[:]); err != nil {
			t.Fatal(err)
		}
		checkInverse(t, z)
	}
	for i := 0; i < 20000; i++ {
		checkInverse(t, fromLimbs(unreducedLimbs(r)))
	}
}

// FuzzInvertVarTime reads the first 32 bytes as an encoding and, given 40,
// the first five 8-byte words as limbs of up to 52 bits.
func FuzzInvertVarTime(f *testing.F) {
	for _, z := range edgeElements() {
		f.Add(z.Bytes())
	}
	f.Add(make([]byte, 40))
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 4; i++ {
		b := make([]byte, 40)
		for j, l := range unreducedLimbs(r) {
			binary.LittleEndian.PutUint64(b[8*j:], l)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 32 {
			return
		}
		var z field.Element
		if _, err := z.SetBytes(b[:32]); err != nil {
			t.Fatal(err)
		}
		checkInverse(t, z)
		if len(b) < 40 {
			return
		}
		var l [5]uint64
		for i := range l {
			l[i] = binary.LittleEndian.Uint64(b[8*i:]) & (1<<52 - 1)
		}
		checkInverse(t, fromLimbs(l))
	})
}

// BenchmarkInvert cycles through 64 random elements, since the time
// invertVarTime takes depends on its input.
func BenchmarkInvert(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	zs := make([]field.Element, 64)
	for i := range zs {
		zs[i] = fromLimbs(unreducedLimbs(r))
	}
	var out field.Element
	b.Run("constant-time", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out.Invert(&zs[i%len(zs)])
		}
	})
	b.Run("variable-time", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			invertVarTime(&out, &zs[i%len(zs)])
		}
	})
}
