package sim

import "math/rand"

// The lags of math/rand's additive generator: its output n is output
// n-randLen plus output n-(randLen-randTap), mod 2^64.
const randLen, randTap = 607, 334

// Rand is a kernel's random stream: for a seed, exactly the values
// math/rand.New(math/rand.NewSource(seed)) yields, method for method, each
// drawn by a direct call instead of one through rand.Source. vec is not a
// fifo.Queue: it is math/rand's ring, each draw overwriting its oldest.
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

// Int63, Int63n and Float64 are math/rand's methods of the same names.

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (r *Rand) Int63() int64 { return int64(r.uint64() & (1<<63 - 1)) }

// Int63n returns a pseudo-random number in [0,n); it panics if n <= 0.
//
// math/rand redraws above max = 1<<63 - 1 - (1<<63)%n. As (1<<63)%n < n,
// max >= 1<<63 - n, so a first draw up to 1<<63 - n is never redrawn and
// skips the division that computes max.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	if n&(n-1) == 0 { // n is power of two, can mask
		return r.Int63() & (n - 1)
	}
	v := r.Int63()
	if v > (1<<63-1)-(n-1) {
		max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
		for v > max {
			v = r.Int63()
		}
	}
	return v % n
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
