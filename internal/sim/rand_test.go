package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randMethod draws one value the way the tree draws it, from the kernel's
// stream and from math/rand's, as a uint64 so the two can be compared.
type randMethod struct {
	name string
	sim  func(*Rand) uint64
	std  func(*rand.Rand) uint64
}

// randMethods is every method the tree calls on a kernel's stream: Int63n at
// the bounds it uses (3, 1 000, the tick jitter's 400 000 ns), at a power of
// two, and at bounds above 2^62, where half to all of the draws compute
// math/rand's threshold and up to half are redrawn, so that both Int63n's
// shortcut and math/rand's loop are checked.
var randMethods = func() []randMethod {
	ms := []randMethod{
		{"Int63",
			func(r *Rand) uint64 { return uint64(r.Int63()) },
			func(r *rand.Rand) uint64 { return uint64(r.Int63()) }},
		{"Float64",
			func(r *Rand) uint64 { return math.Float64bits(r.Float64()) },
			func(r *rand.Rand) uint64 { return math.Float64bits(r.Float64()) }},
	}
	for _, n := range []int64{3, 1000, 400000, 1 << 20, 1<<62 + 1, 3 << 61, 1<<63 - 1} {
		ms = append(ms, randMethod{fmt.Sprintf("Int63n(%d)", n),
			func(r *Rand) uint64 { return uint64(r.Int63n(n)) },
			func(r *rand.Rand) uint64 { return uint64(r.Int63n(n)) }})
	}
	return ms
}()

// drawBoth draws n values with m from a kernel's stream and from math/rand's,
// both seeded with seed, and reports the first draw where they differ.
func drawBoth(seed int64, n int, m randMethod) error {
	got, want := NewKernel(seed).Rand(), rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		if g, w := m.sim(got), m.std(want); g != w {
			return fmt.Errorf("seed %d, %s, draw %d: %d, math/rand %d", seed, m.name, i, g, w)
		}
	}
	return nil
}

// TestRandMatchesMathRand holds the kernel's stream to math/rand's, method by
// method, over 20 000 draws a method (well past the 607 outputs the seed
// records, so the recurrence is what is checked) and over draws that mix the
// methods the way a model interleaves them.
func TestRandMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, 89482311, 1<<31 - 1, 1 << 40, -1 << 40} {
		for _, m := range randMethods {
			if err := drawBoth(seed, 20000, m); err != nil {
				t.Fatal(err)
			}
		}
		got, want := NewKernel(seed).Rand(), rand.New(rand.NewSource(seed))
		for i := 0; i < 20000; i++ {
			m := randMethods[i*7%len(randMethods)]
			if g, w := m.sim(got), m.std(want); g != w {
				t.Fatalf("seed %d, mixed draw %d (%s): %d, math/rand %d", seed, i, m.name, g, w)
			}
		}
	}
}

// FuzzRandMatchesMathRand checks the same differentially at any seed, draw
// count and method.
func FuzzRandMatchesMathRand(f *testing.F) {
	f.Add(int64(1), uint16(700), uint8(0))
	f.Add(int64(-1<<40), uint16(2000), uint8(4))
	f.Add(int64(89482311), uint16(607), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, method uint8) {
		if err := drawBoth(seed, int(n), randMethods[int(method)%len(randMethods)]); err != nil {
			t.Fatal(err)
		}
	})
}

var (
	intSink   int64
	floatSink float64
)

// BenchmarkRand times the draws a server's model makes, Int63n and Float64,
// on the kernel's stream and on math/rand's.
func BenchmarkRand(b *testing.B) {
	b.Run("Int63n/sim", func(b *testing.B) {
		r := NewKernel(1).Rand()
		for i := 0; i < b.N; i++ {
			intSink += r.Int63n(1000)
		}
	})
	b.Run("Int63n/math-rand", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			intSink += r.Int63n(1000)
		}
	})
	b.Run("Float64/sim", func(b *testing.B) {
		r := NewKernel(1).Rand()
		for i := 0; i < b.N; i++ {
			floatSink += r.Float64()
		}
	})
	b.Run("Float64/math-rand", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			floatSink += r.Float64()
		}
	})
}
