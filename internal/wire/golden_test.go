package wire_test

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/pca"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/wire"
)

// Golden vectors pin the binary wire format byte-for-byte: any codec change
// that silently alters an encoding — a reordered field, a widened length
// prefix, a dropped header byte — fails here before it can strand a
// mixed-version fleet mid-protocol. Regenerate deliberately with
// REGEN_GOLDEN=1 after an intentional, versioned format change.

type goldenCase struct {
	name string
	enc  []byte                            // AppendWire output
	rt   func(data []byte) ([]byte, error) // decode then re-encode
}

func goldenCases() []goldenCase {
	signer := fuzzIdentity("attestsrv")
	ca := fuzzIdentity("pca")
	avk := fuzzIdentity("avk")
	n1, n2, n3 := fuzzNonce("n1"), fuzzNonce("n2"), fuzzNonce("n3")
	req := properties.Request{
		Kinds:  []properties.MeasurementKind{properties.KindTaskList, properties.KindPlatformQuote},
		Window: 3 * time.Second,
	}
	sum := func(tag string) [32]byte { return cryptoutil.Hash("golden", []byte(tag)) }
	ms := []properties.Measurement{
		{
			Kind:     properties.KindPlatformQuote,
			Digest:   sum("digest"),
			LogNames: []string{"bios", "bootloader"},
			LogSums:  [][32]byte{sum("bios"), sum("boot")},
			QuoteSig: bytes.Repeat([]byte{0x51}, 64),
			QuotePCR: []uint32{0, 1, 7},
			QuoteVal: [][32]byte{sum("pcr0"), sum("pcr1"), sum("pcr7")},
		},
		{
			Kind:     properties.KindTaskList,
			Tasks:    []string{"init", "sshd", "web"},
			Counters: []uint64{3, 1, 4, 1, 5},
			CPUTime:  250 * time.Millisecond,
			WallTime: time.Second,
			Report:   []byte("backend-report"),
			VKey:     []byte{0xaa, 0xbb},
			Endorse:  []byte{0xcc},
		},
	}
	verdict := properties.Verdict{
		Property: properties.RuntimeIntegrity,
		Healthy:  false,
		Class:    properties.FailureRuntime,
		Reason:   "unexpected task",
		Details:  map[string]string{"task": "rootkit", "allow": "init,sshd"},
		Backend:  "tpm",
	}
	ev := wire.Evidence{
		Vid:          "vm-1",
		Req:          req,
		Measurements: ms,
		N3:           n3,
		Q3:           wire.ComputeQ3("vm-1", req, ms, n3),
		Backend:      "tpm",
		AVK:          avk.Public(),
		Cert:         cryptoutil.IssueCertificate(ca, "anon-7", pca.PurposeAttestationKey, avk.Public(), 7),
		Sig:          avk.Sign([]byte("golden-evidence")),
	}
	rep := *wire.BuildReport(signer, "vm-1", "server-1", properties.RuntimeIntegrity, verdict, n2)
	crep := *wire.BuildCustomerReport(signer, "vm-1", properties.RuntimeIntegrity, verdict, n1)
	crep.Stale, crep.Age = true, 42*time.Second

	ar := wire.AttestRequest{Vid: "vm-1", Prop: properties.RuntimeIntegrity, N1: n1}
	pr := wire.PeriodicRequest{Vid: "vm-1", Prop: properties.CPUAvailability, Freq: 5 * time.Second, Random: true, N1: n1}
	spr := wire.StopPeriodicRequest{Vid: "vm-1", Prop: properties.CPUAvailability, N1: n1}
	apr := wire.AppraisalRequest{Vid: "vm-1", ServerID: "server-1", Prop: properties.StartupIntegrity, N2: n2}
	mr := wire.MeasureRequest{Vid: "vm-1", Req: req, N3: n3, LogFrom: 3310}

	return []goldenCase{
		{"attest-request", ar.AppendWire(nil), func(d []byte) ([]byte, error) {
			var m wire.AttestRequest
			if err := m.DecodeWire(d); err != nil {
				return nil, err
			}
			return m.AppendWire(nil), nil
		}},
		{"periodic-request", pr.AppendWire(nil), func(d []byte) ([]byte, error) {
			var m wire.PeriodicRequest
			if err := m.DecodeWire(d); err != nil {
				return nil, err
			}
			return m.AppendWire(nil), nil
		}},
		{"stop-periodic-request", spr.AppendWire(nil), func(d []byte) ([]byte, error) {
			var m wire.StopPeriodicRequest
			if err := m.DecodeWire(d); err != nil {
				return nil, err
			}
			return m.AppendWire(nil), nil
		}},
		{"appraisal-request", apr.AppendWire(nil), func(d []byte) ([]byte, error) {
			var m wire.AppraisalRequest
			if err := m.DecodeWire(d); err != nil {
				return nil, err
			}
			return m.AppendWire(nil), nil
		}},
		{"measure-request", mr.AppendWire(nil), func(d []byte) ([]byte, error) {
			var m wire.MeasureRequest
			if err := m.DecodeWire(d); err != nil {
				return nil, err
			}
			return m.AppendWire(nil), nil
		}},
		{"evidence", ev.AppendWire(nil), func(d []byte) ([]byte, error) {
			var m wire.Evidence
			if err := m.DecodeWire(d); err != nil {
				return nil, err
			}
			return m.AppendWire(nil), nil
		}},
		{"report", rep.AppendWire(nil), func(d []byte) ([]byte, error) {
			var m wire.Report
			if err := m.DecodeWire(d); err != nil {
				return nil, err
			}
			return m.AppendWire(nil), nil
		}},
		{"customer-report", crep.AppendWire(nil), func(d []byte) ([]byte, error) {
			var m wire.CustomerReport
			if err := m.DecodeWire(d); err != nil {
				return nil, err
			}
			return m.AppendWire(nil), nil
		}},
	}
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".hex")
}

func TestGoldenVectors(t *testing.T) {
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			if os.Getenv("REGEN_GOLDEN") != "" {
				if err := os.MkdirAll(filepath.Dir(goldenPath(gc.name)), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenPath(gc.name), []byte(hex.EncodeToString(gc.enc)+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			raw, err := os.ReadFile(goldenPath(gc.name))
			if err != nil {
				t.Fatalf("missing golden vector (run with REGEN_GOLDEN=1 after an intentional format change): %v", err)
			}
			want, err := hex.DecodeString(string(bytes.TrimSpace(raw)))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gc.enc, want) {
				t.Fatalf("%s encoding drifted from the committed golden vector\n got: %x\nwant: %x", gc.name, gc.enc, want)
			}
			// The committed bytes also decode back to the same encoding.
			re, err := gc.rt(want)
			if err != nil {
				t.Fatalf("decoding golden vector: %v", err)
			}
			if !bytes.Equal(re, want) {
				t.Fatalf("%s golden vector does not round-trip", gc.name)
			}
		})
	}
}
