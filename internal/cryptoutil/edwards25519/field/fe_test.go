package field

import (
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
