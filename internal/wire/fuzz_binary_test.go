package wire_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/wire"
)

// The binary codec's decoders promise a strict bijection: a decode either
// fails or accepts exactly the bytes AppendWire would produce for the
// decoded value. This target hammers that invariant with arbitrary input —
// no panic, no over-read, and no non-canonical encoding (trailing bytes,
// mislength fixed fields, unsorted map keys, non-0/1 bools) may slip
// through, because two distinct byte strings decoding to one value would
// let a relay re-encode a signed message without detection. Whatever does
// decode into a signed message then goes through its signature
// verification with the decoded (attacker-chosen) fields: verification
// must reject or accept, never panic, whatever the bytes claim.

func binarySeeds() [][]byte {
	seeds := make([][]byte, 0, 13)
	for _, gc := range goldenCases() {
		seeds = append(seeds, gc.enc)
	}
	verdict := properties.Verdict{Property: properties.CPUAvailability, Healthy: true, Reason: "ok", Details: map[string]string{"share": "0.5"}}
	batch := wire.BuildCustomerBatch(fuzzIdentity("controller"), "vm-1", properties.CPUAvailability, fuzzNonce("n1"),
		[]properties.Verdict{verdict, verdict})
	return append(seeds,
		[]byte{0xC1},             // bare magic
		[]byte{0xC1, 0x01},       // magic + version, no tag
		[]byte{0xC1, 0x02, 0x01}, // future version
		[]byte{},
		batch.AppendWire(nil),
	)
}

func FuzzBinaryWireDecode(f *testing.F) {
	for _, s := range binarySeeds() {
		f.Add(s)
	}
	key := fuzzIdentity("verifier").Public()
	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(name string, err error, reenc func() []byte) bool {
			if err != nil {
				return false
			}
			if got := reenc(); !bytes.Equal(got, data) {
				t.Fatalf("%s accepted a non-canonical encoding:\n in: %x\nout: %x", name, data, got)
			}
			return true
		}
		var ar wire.AttestRequest
		check("attest-request", ar.DecodeWire(data), func() []byte { return ar.AppendWire(nil) })
		var pr wire.PeriodicRequest
		check("periodic-request", pr.DecodeWire(data), func() []byte { return pr.AppendWire(nil) })
		var spr wire.StopPeriodicRequest
		check("stop-periodic-request", spr.DecodeWire(data), func() []byte { return spr.AppendWire(nil) })
		var apr wire.AppraisalRequest
		check("appraisal-request", apr.DecodeWire(data), func() []byte { return apr.AppendWire(nil) })
		var mr wire.MeasureRequest
		check("measure-request", mr.DecodeWire(data), func() []byte { return mr.AppendWire(nil) })
		var ev wire.Evidence
		if check("evidence", ev.DecodeWire(data), func() []byte { return ev.AppendWire(nil) }) {
			_ = wire.VerifyEvidence(&ev, "pca", key, ev.Vid, ev.Req, ev.N3)
		}
		var rep wire.Report
		if check("report", rep.DecodeWire(data), func() []byte { return rep.AppendWire(nil) }) {
			_ = wire.VerifyReport(&rep, key, rep.Vid, rep.Prop, rep.N2)
		}
		var cr wire.CustomerReport
		if check("customer-report", cr.DecodeWire(data), func() []byte { return cr.AppendWire(nil) }) {
			_ = wire.VerifyCustomerReport(&cr, key, cr.Vid, cr.Prop, cr.N1)
		}
		var cb wire.CustomerBatch
		if check("customer-batch", cb.DecodeWire(data), func() []byte { return cb.AppendWire(nil) }) {
			_ = wire.VerifyCustomerBatch(&cb, key, cb.Vid, cb.Prop, cb.N1)
		}
	})
}

// TestRegenBinaryFuzzSeeds rewrites the committed seed corpus for
// FuzzBinaryWireDecode from the golden fixtures. Run with
// REGEN_FUZZ_SEEDS=1 after changing the binary format.
func TestRegenBinaryFuzzSeeds(t *testing.T) {
	if os.Getenv("REGEN_FUZZ_SEEDS") == "" {
		t.Skip("set REGEN_FUZZ_SEEDS=1 to rewrite testdata/fuzz seeds")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzBinaryWireDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, s := range binarySeeds() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
