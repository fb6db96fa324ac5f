package main

import (
	"crypto/ed25519"
	"crypto/sha256"
	"slices"
	"time"
)

// The reference kernel. The shared host this benchmark runs on changes
// speed: for minutes at a time every single-threaded, cache-resident
// computation takes a fifth to a half longer, and the program's latency and
// CPU time per operation go with it, so no statistic of one run's wall-clock
// times repeats from run to run (README.md has the tables). Every timed
// region therefore interleaves passes of a fixed kernel with the workload's
// operations, and reports the times of every stretch between two passes at
// the reference speed: measured time × calibRef ÷ the mean of the two. The
// kernel uses the standard library only, never the repository's code, so no
// change to the program can move it, and it allocates nothing.

const (
	// calibEvery is how much workload time passes between two kernel passes
	// (~0.13 ms each, so under 2 % of a region). An operation that takes
	// longer — a fleet visit, a churn cycle, a periodic step — has a pass on
	// either side of it.
	calibEvery = 8 * time.Millisecond

	// calibRef is the pass time all times are reported at: what the kernel
	// takes on the 2-vCPU box the benchmark was defined on while that box is
	// quiet (in its slow phases a pass takes 1.2 to 1.9 times as long).
	// Reported times read as that box's own quiet milliseconds.
	calibRef = 130 * time.Microsecond

	calibVerifies = 3
	calibHashes   = 3

	// calibBurst caps the passes of one reading (calibrator.reading).
	calibBurst = 16
)

// calibrator holds the kernel's fixed inputs.
type calibrator struct {
	pub  ed25519.PublicKey
	msg  []byte
	sig  []byte
	page []byte
	sink byte
}

func newCalibrator() *calibrator {
	seed := make([]byte, ed25519.SeedSize)
	for i := range seed {
		seed[i] = byte(i)
	}
	priv := ed25519.NewKeyFromSeed(seed)
	c := &calibrator{pub: priv.Public().(ed25519.PublicKey), msg: make([]byte, echoBody), page: make([]byte, 4096)}
	c.sig = ed25519.Sign(priv, c.msg)
	return c
}

// pass runs the kernel once — signature verifications and page hashes, the
// two things an attestation spends most of its non-simulator time on — and
// returns how long it took.
func (c *calibrator) pass() time.Duration {
	t0 := time.Now()
	for i := 0; i < calibVerifies; i++ {
		if !ed25519.Verify(c.pub, c.msg, c.sig) {
			panic("benchmark: calibration signature does not verify")
		}
	}
	for i := 0; i < calibHashes; i++ {
		sum := sha256.Sum256(c.page)
		c.sink ^= sum[0]
		c.page[i] = sum[1]
	}
	return time.Since(t0)
}

// reading is the host's speed after a stretch of the workload that took
// took: one pass for every calibEvery of it, at most calibBurst, and their
// median in µs. After the usual stretch that is a single pass. An operation
// that runs for many calibEvery (a periodic step takes 0.2 s) has only the
// readings before and after it to be read through, and the host's speed
// flickers from one pass to the next: the median of a burst says what the
// speed around that moment was, where a single pass says what it happened
// to be.
func (c *calibrator) reading(took time.Duration) float64 {
	n := int(took / calibEvery)
	if n < 1 {
		n = 1
	}
	if n > calibBurst {
		n = calibBurst
	}
	var buf [calibBurst]float64 // on the stack: a reading allocates nothing
	ps := buf[:n]
	for i := range ps {
		ps[i] = us(c.pass())
	}
	slices.Sort(ps)
	return quantile(ps, 0.5)
}
