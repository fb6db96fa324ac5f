package wire_test

import (
	"testing"

	"cloudmonatt/internal/binenc"
	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/rpc"
	"cloudmonatt/internal/wire"
)

// A message has one codec. The channel authenticates the peer, but a
// compromised cloud server or attestation server is exactly the adversary
// the paper's quotes defend against, so what it sends must reach exactly
// one parser: rpc.Decode into a message accepts nothing that does not
// start with the binary header. The seeds are the golden encodings with
// the magic byte lost; the committed corpus is what a peer from before the
// binary codec sent for the same eight messages. (What the binary parser
// does with hostile bytes is FuzzBinaryWireDecode's business.)

func fuzzIdentity(name string) *cryptoutil.Identity {
	seed := cryptoutil.Hash("fuzz-seed", []byte(name))
	id, err := cryptoutil.IdentityFromSeed(name, seed[:])
	if err != nil {
		panic(err)
	}
	return id
}

func fuzzNonce(tag string) cryptoutil.Nonce {
	var n cryptoutil.Nonce
	sum := cryptoutil.Hash("fuzz-nonce", []byte(tag))
	copy(n[:], sum[:])
	return n
}

func FuzzWireDecode(f *testing.F) {
	for _, gc := range goldenCases() {
		f.Add(gc.enc[1:])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, m := range []any{
			&wire.AttestRequest{}, &wire.PeriodicRequest{}, &wire.StopPeriodicRequest{},
			&wire.AppraisalRequest{}, &wire.MeasureRequest{},
			&wire.Evidence{}, &wire.Report{}, &wire.CustomerReport{},
			&wire.VidRequest{}, &wire.VMStatus{}, &wire.CustomerBatch{},
		} {
			if err := rpc.Decode(data, m); err == nil && (len(data) == 0 || data[0] != binenc.Magic) {
				t.Fatalf("rpc.Decode accepted a body not led by the binary header into %T: %x", m, data)
			}
		}
	})
}
