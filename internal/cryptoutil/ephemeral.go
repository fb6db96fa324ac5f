package cryptoutil

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"io"

	"cloudmonatt/internal/cryptoutil/edwards25519"
)

// x25519Size is the byte length of an X25519 private key, public key and
// shared secret.
const x25519Size = 32

// An Ephemeral is a one-use X25519 key pair for a secure-channel handshake.
// Its public key and shared secret are the ones crypto/ecdh computes from
// the same private key, byte for byte, on the copied curve code: the
// public key from the constant-time base table, the secret on the
// Montgomery ladder. Each of the two ticks one ECDH operation in Ops.
type Ephemeral struct {
	priv [x25519Size]byte
	pub  [x25519Size]byte
}

// NewEphemeral draws a private key of x25519Size bytes from r and computes
// its public key. It reads exactly that many bytes, so a fixed r gives a
// fixed key.
func NewEphemeral(r io.Reader) (*Ephemeral, error) {
	opECDH.Add(1)
	e := new(Ephemeral)
	if _, err := io.ReadFull(r, e.priv[:]); err != nil {
		return nil, fmt.Errorf("cryptoutil: drawing X25519 key: %w", err)
	}
	edwards25519.X25519Base(&e.pub, &e.priv)
	return e, nil
}

// Public returns the encoded public key.
func (e *Ephemeral) Public() []byte { return e.pub[:] }

// ECDH returns the shared secret with the peer's public key. It rejects a
// peer key of the wrong length, and, as crypto/ecdh does, one of low order,
// whose secret is all zeroes.
func (e *Ephemeral) ECDH(peer []byte) ([x25519Size]byte, error) {
	var secret [x25519Size]byte
	if len(peer) != x25519Size {
		return secret, fmt.Errorf("cryptoutil: X25519 public key is %d bytes, want %d", len(peer), x25519Size)
	}
	opECDH.Add(1)
	edwards25519.X25519(&secret, &e.priv, (*[x25519Size]byte)(peer))
	var zero [x25519Size]byte
	if subtle.ConstantTimeCompare(secret[:], zero[:]) == 1 {
		return [x25519Size]byte{}, errLowOrder
	}
	return secret, nil
}

var errLowOrder = errors.New("cryptoutil: bad X25519 peer key: low order point")
