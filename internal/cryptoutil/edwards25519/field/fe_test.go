package field

import (
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// Generate draws limbs of up to 52 bits, the most a light reduction
// leaves, half the time from edge values around 2^51 and 19.
func (Element) Generate(r *rand.Rand, _ int) reflect.Value {
	edge := []uint64{0, 1, 18, 19, 1<<51 - 20, 1<<51 - 19, 1<<51 - 1, 1 << 51, 1<<52 - 19, 1<<52 - 1}
	var l [5]uint64
	for i := range l {
		if r.Intn(2) == 0 {
			l[i] = edge[r.Intn(len(edge))]
		} else {
			l[i] = r.Uint64() & (1<<52 - 1)
		}
	}
	return reflect.ValueOf(Element{l[0], l[1], l[2], l[3], l[4]})
}

// TestMulMatchesGeneric checks feMul and feSquare, assembly on amd64,
// against the portable code they replace there.
func TestMulMatchesGeneric(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20000}
	mul := func(a, b Element) bool {
		var asm, generic Element
		feMul(&asm, &a, &b)
		feMulGeneric(&generic, &a, &b)
		return asm == generic
	}
	if err := quick.Check(mul, cfg); err != nil {
		t.Error("feMul:", err)
	}
	square := func(a Element) bool {
		var asm, generic Element
		feSquare(&asm, &a)
		feSquareGeneric(&generic, &a)
		return asm == generic
	}
	if err := quick.Check(square, cfg); err != nil {
		t.Error("feSquare:", err)
	}
}

// The rest of this file is copied from Go 1.24.0's field/fe_test.go: the
// tests of Select, Swap and Mult32 and their helpers. TestMult32 draws from
// the Generate above.

// quickCheckConfig returns a quick.Config that scales the max count by the
// given factor if the -short flag is not set.
func quickCheckConfig(slowScale int) *quick.Config {
	cfg := new(quick.Config)
	if !testing.Short() {
		cfg.MaxCountScale = float64(slowScale)
	}
	return cfg
}

// isInBounds returns whether the element is within the expected bit size bounds
// after a light reduction.
func isInBounds(x *Element) bool {
	return bits.Len64(x.l0) <= 52 &&
		bits.Len64(x.l1) <= 52 &&
		bits.Len64(x.l2) <= 52 &&
		bits.Len64(x.l3) <= 52 &&
		bits.Len64(x.l4) <= 52
}

func TestSelectSwap(t *testing.T) {
	a := Element{358744748052810, 1691584618240980, 977650209285361, 1429865912637724, 560044844278676}
	b := Element{84926274344903, 473620666599931, 365590438845504, 1028470286882429, 2146499180330972}

	var c, d Element

	c.Select(&a, &b, 1)
	d.Select(&a, &b, 0)

	if c.Equal(&a) != 1 || d.Equal(&b) != 1 {
		t.Errorf("Select failed")
	}

	c.Swap(&d, 0)

	if c.Equal(&a) != 1 || d.Equal(&b) != 1 {
		t.Errorf("Swap failed")
	}

	c.Swap(&d, 1)

	if c.Equal(&b) != 1 || d.Equal(&a) != 1 {
		t.Errorf("Swap failed")
	}
}

func TestMult32(t *testing.T) {
	mult32EquivalentToMul := func(x Element, y uint32) bool {
		t1 := new(Element)
		for i := 0; i < 100; i++ {
			t1.Mult32(&x, y)
		}

		ty := new(Element)
		ty.l0 = uint64(y)

		t2 := new(Element)
		for i := 0; i < 100; i++ {
			t2.Multiply(&x, ty)
		}

		return t1.Equal(t2) == 1 && isInBounds(t1) && isInBounds(t2)
	}

	if err := quick.Check(mult32EquivalentToMul, quickCheckConfig(1024)); err != nil {
		t.Error(err)
	}
}
