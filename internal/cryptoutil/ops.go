// Asymmetric-operation accounting. Every ed25519 sign/verify and X25519
// key generation and agreement in the process runs in this package and
// ticks a counter here, so tests can prove hot-path claims ("a resumed
// secure channel performs zero asymmetric operations") by differencing
// snapshots instead of trusting the code path.
package cryptoutil

import "sync/atomic"

var opSign, opVerify, opECDH, tableBuilds atomic.Uint64

// OpCounts is a snapshot of the process-wide asymmetric-crypto counters.
type OpCounts struct {
	Sign   uint64 // ed25519 signatures produced
	Verify uint64 // ed25519 verifications attempted
	ECDH   uint64 // X25519 operations (keygen + shared-secret)
}

// Ops snapshots the counters.
func Ops() OpCounts {
	return OpCounts{Sign: opSign.Load(), Verify: opVerify.Load(), ECDH: opECDH.Load()}
}

// VerifyTableBuilds returns how many times Verify has built a key's tables
// into its cache, counting a key that does not decode. A build is what a
// cache miss pays on top of a check, so it is counted apart from Ops.
func VerifyTableBuilds() uint64 { return tableBuilds.Load() }

// Sub returns the per-counter difference c - prev.
func (c OpCounts) Sub(prev OpCounts) OpCounts {
	return OpCounts{Sign: c.Sign - prev.Sign, Verify: c.Verify - prev.Verify, ECDH: c.ECDH - prev.ECDH}
}

// Asymmetric returns the total asymmetric operations in the snapshot.
func (c OpCounts) Asymmetric() uint64 { return c.Sign + c.Verify + c.ECDH }
