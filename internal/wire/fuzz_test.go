package wire_test

import (
	"bytes"
	"encoding/gob"
	"testing"
	"time"

	"cloudmonatt/internal/binenc"
	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/rpc"
	"cloudmonatt/internal/wire"
)

// A protocol message has one codec. The channel authenticates the peer, but
// a compromised cloud server or attestation server is exactly the adversary
// the paper's quotes defend against, so what it sends must reach exactly
// one parser: rpc.Decode into a protocol message accepts nothing that does
// not start with the binary header — in particular not the gob encodings a
// pre-binary peer produced, which are this target's seeds and committed
// corpus. (What the binary parser does with hostile bytes is
// FuzzBinaryWireDecode's business.)

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

// gobSeeds returns the eight protocol messages as gob encodes them.
func gobSeeds() [][]byte {
	signer := fuzzIdentity("attestsrv")
	n1, n2, n3 := fuzzNonce("n1"), fuzzNonce("n2"), fuzzNonce("n3")
	req := properties.Request{Kinds: []properties.MeasurementKind{properties.KindTaskList}, Window: time.Second}
	ms := []properties.Measurement{{Kind: properties.KindTaskList, Tasks: []string{"init", "sshd"}}}
	verdict := properties.Verdict{Property: properties.RuntimeIntegrity, Healthy: true}
	msgs := []any{
		wire.AttestRequest{Vid: "vm-1", Prop: properties.RuntimeIntegrity, N1: n1},
		wire.PeriodicRequest{Vid: "vm-1", Prop: properties.CPUAvailability, Freq: 5 * time.Second, Random: true, N1: n1},
		wire.StopPeriodicRequest{Vid: "vm-1", Prop: properties.CPUAvailability, N1: n1},
		wire.AppraisalRequest{Vid: "vm-1", ServerID: "server-1", Prop: properties.StartupIntegrity, N2: n2},
		wire.MeasureRequest{Vid: "vm-1", Req: req, N3: n3},
		wire.Evidence{Vid: "vm-1", Req: req, Measurements: ms, N3: n3, Q3: wire.ComputeQ3("vm-1", req, ms, n3), Backend: "tpm"},
		*wire.BuildReport(signer, "vm-1", "server-1", properties.RuntimeIntegrity, verdict, n2),
		*wire.BuildCustomerReport(signer, "vm-1", properties.RuntimeIntegrity, verdict, n1),
	}
	seeds := make([][]byte, 0, len(msgs)+1)
	for _, m := range msgs {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(m); err != nil {
			panic(err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	return append(seeds, []byte{})
}

func FuzzWireDecode(f *testing.F) {
	for _, s := range gobSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, m := range []any{
			&wire.AttestRequest{}, &wire.PeriodicRequest{}, &wire.StopPeriodicRequest{},
			&wire.AppraisalRequest{}, &wire.MeasureRequest{},
			&wire.Evidence{}, &wire.Report{}, &wire.CustomerReport{},
		} {
			if err := rpc.Decode(data, m); err == nil && (len(data) == 0 || data[0] != binenc.Magic) {
				t.Fatalf("rpc.Decode accepted a non-binary body into %T: %x", m, data)
			}
		}
	})
}
