package cryptoutil

import (
	"crypto/ed25519"
	"crypto/rand"
	"math"
	"slices"
	"testing"
	"time"

	"cloudmonatt/internal/cryptoutil/edwards25519"
)

// A timingTarget is one routine run on a secret, in the dudect style
// (Reparaz, Balasch & Verbauwhede, "Dude, is my code constant time?", DATE
// 2017): slot i of its input holds either the one fixed secret or a fresh
// random one, and the test asks whether the two classes take different
// times.
type timingTarget struct {
	name string
	// set writes the fixed secret (fixed) or random bytes r into slot i.
	// Both classes live in the same array, so they are equally warm in
	// the cache.
	set func(i int, fixed bool, r *[32]byte)
	// run calls the routine on slot i.
	run func(i int)
}

// timingSamples is the number of calls timed per target. The control's
// leak reads |t| in the hundreds at this size.
const timingSamples = 8000

// maxTimingT is the bound on |t|: dudect's threshold for a leak beyond
// doubt, far above the ±4.5 of a first warning, so that a shared host's
// noise does not fail a constant-time routine.
const maxTimingT = 10

// timingT times tg on timingSamples inputs, each of a random class, and
// returns the largest |t| of Welch's test between the classes' times, over
// the whole sample and over the sample cropped at several percentiles, as
// dudect crops the long tail that interrupts and the collector add.
func timingT(t *testing.T, tg timingTarget) float64 {
	t.Helper()
	random := make([]byte, 32*timingSamples+timingSamples)
	if _, err := rand.Read(random); err != nil {
		t.Fatal(err)
	}
	fixed := make([]bool, timingSamples)
	for i := range fixed {
		fixed[i] = random[32*timingSamples+i]&1 == 0
		tg.set(i, fixed[i], (*[32]byte)(random[32*i:]))
	}
	for i := 0; i < timingSamples/8; i++ { // warm caches and predictors
		tg.run(i)
	}
	ns := make([]float64, timingSamples)
	for i := range ns {
		t0 := time.Now()
		tg.run(i)
		ns[i] = float64(time.Since(t0))
	}
	sorted := slices.Clone(ns)
	slices.Sort(sorted)
	worst := 0.0
	for _, p := range []float64{1, 0.99, 0.95, 0.9, 0.75, 0.5} {
		limit := sorted[int(p*float64(len(sorted)-1))]
		var n, sum, sq [2]float64
		for i, x := range ns {
			if x > limit {
				continue
			}
			c := 0
			if fixed[i] {
				c = 1
			}
			n[c]++
			sum[c] += x
			sq[c] += x * x
		}
		if n[0] < 2 || n[1] < 2 {
			continue
		}
		var mean, v [2]float64
		for c := range mean {
			mean[c] = sum[c] / n[c]
			v[c] = (sq[c] - n[c]*mean[c]*mean[c]) / (n[c] - 1)
		}
		tv := math.Abs(mean[0]-mean[1]) / math.Sqrt(v[0]/n[0]+v[1]/n[1])
		if math.IsNaN(tv) {
			continue
		}
		worst = max(worst, tv)
	}
	return worst
}

// TestSecretTimingIsFlat runs Welch's t-test between a fixed secret and
// random ones on every routine that takes a secret: expanding a signing
// key, signing, minting an X25519 key and computing an X25519 secret. A
// routine fails at |t| > 10. A positive control first feeds a secret to a
// routine known to take variable time, the non-zero NAF digits that
// perkey.go's verification walk visits, and must fail, or the test could
// not have seen a leak. It is skipped under -short; CI runs it alone at
// GOMAXPROCS=1.
func TestSecretTimingIsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("times thousands of calls per routine")
	}
	msg := make([]byte, 64)

	// The fixed class has the all-zero seed or scalar: its clamped scalar,
	// 2^254 for X25519, makes every lookup and ladder step take the zero
	// or the same branch-free path a leak would shortcut.
	seeds := make([][32]byte, timingSamples)
	setSeed := func(i int, fixed bool, r *[32]byte) {
		seeds[i] = [32]byte{}
		if !fixed {
			seeds[i] = *r
		}
	}
	var expanded edwards25519.SignKey
	keys := make([]edwards25519.SignKey, timingSamples)
	var sig [64]byte
	var pub [32]byte
	ephemerals := make([]Ephemeral, timingSamples)
	peer, _ := NewEphemeral(constReader(0x42))
	targets := []timingTarget{
		{"SignKey.SetSeed", setSeed, func(i int) { expanded.SetSeed(&seeds[i]) }},
		{"SignKey.Sign", func(i int, fixed bool, r *[32]byte) {
			setSeed(i, fixed, r)
			keys[i].SetSeed(&seeds[i])
		}, func(i int) { keys[i].Sign(&sig, msg) }},
		{"X25519Base", setSeed, func(i int) { edwards25519.X25519Base(&pub, &seeds[i]) }},
		{"Ephemeral.ECDH", func(i int, fixed bool, r *[32]byte) {
			setSeed(i, fixed, r)
			ephemerals[i].priv = seeds[i]
		}, func(i int) { ephemerals[i].ECDH(peer.Public()) }},
	}

	// The control verifies a signature whose S is the secret: S = 0 has
	// no non-zero digit, a random S about 28, each a point addition.
	var vk edwards25519.VerifyKey
	if err := vk.Set(ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize)).Public().(ed25519.PublicKey)); err != nil {
		t.Fatal(err)
	}
	sigs := make([][64]byte, timingSamples)
	control := timingTarget{"VerifyKey.Verify on a secret S", func(i int, fixed bool, r *[32]byte) {
		sigs[i] = [64]byte{0: 1} // R's encoding is public and fixed
		if !fixed {
			copy(sigs[i][32:], r[:])
			sigs[i][63] &= 0x0f // below 2^252, so S is canonical
		}
	}, func(i int) { vk.Verify(msg, sigs[i][:]) }}
	if tv := timingT(t, control); tv <= maxTimingT {
		t.Fatalf("control %s: |t| = %.1f, want > %d: the test cannot see a known leak", control.name, tv, maxTimingT)
	} else {
		t.Logf("control %s: |t| = %.1f", control.name, tv)
	}

	for _, tg := range targets {
		tv := timingT(t, tg)
		t.Logf("%s: |t| = %.1f", tg.name, tv)
		if tv > maxTimingT {
			t.Errorf("%s: |t| = %.1f between a fixed and random secrets, want ≤ %d", tg.name, tv, maxTimingT)
		}
	}
}

// constReader reads as an endless run of one byte.
type constReader byte

func (c constReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(c)
	}
	return len(p), nil
}
