package sim

import "math/rand"

// The lags of math/rand's additive generator: its output n is output
// n-randLen plus output n-(randLen-randTap), mod 2^64.
const randLen, randTap = 607, 334

// Rand is a kernel's random stream: for a seed, exactly the values
// math/rand.New(math/rand.NewSource(seed)) yields, method for method, each
// drawn by a direct call instead of one through rand.Source.
type Rand struct {
	vec  [randLen]uint64 // the last randLen outputs; vec[next] is the oldest
	next int
}

// seed records the first randLen outputs of math/rand's source for seed and
// runs the recurrence backwards from them to the randLen before output 0, so
// that uint64 yields the recorded outputs first without telling them apart.
func (r *Rand) seed(seed int64) {
	src := rand.NewSource(seed).(rand.Source64)
	var x [2 * randLen]uint64 // x[randLen+n] is output n
	for i := randLen; i < len(x); i++ {
		x[i] = src.Uint64()
	}
	for i := randLen - 1; i >= 0; i-- {
		x[i] = x[i+randLen] - x[i+randTap]
	}
	copy(r.vec[:], x[:randLen])
}

func (r *Rand) uint64() uint64 {
	i := r.next
	j := i + randTap
	if j >= randLen {
		j -= randLen
	}
	x := r.vec[i] + r.vec[j]
	r.vec[i] = x
	if i++; i == randLen {
		i = 0
	}
	r.next = i
	return x
}

// Int63, Int63n, Intn and Float64 are math/rand's methods of the same names.

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (r *Rand) Int63() int64 { return int64(r.uint64() & (1<<63 - 1)) }

// Int63n returns a pseudo-random number in [0,n); it panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	if n&(n-1) == 0 { // n is power of two, can mask
		return r.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > max {
		v = r.Int63()
	}
	return v % n
}

// Intn returns a pseudo-random number in [0,n); it panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n > 1<<31-1 {
		return int(r.Int63n(int64(n)))
	}
	// Int31n, on the top 31 bits of each Int63.
	m := int32(n)
	if m&(m-1) == 0 {
		return int(int32(r.Int63()>>32) & (m - 1))
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(m))
	v := int32(r.Int63() >> 32)
	for v > max {
		v = int32(r.Int63() >> 32)
	}
	return int(v % m)
}

// Float64 returns a pseudo-random number in [0.0,1.0).
func (r *Rand) Float64() float64 {
again:
	f := float64(r.Int63()) / (1 << 63)
	if f == 1 {
		goto again // resample; this branch is taken O(never)
	}
	return f
}
