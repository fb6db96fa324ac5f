package sevsnp_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/trust/driver"
	"cloudmonatt/internal/trust/driver/sevsnp"
)

// The attestation report travels inside wire.Evidence from the cloud
// server to the appraiser; a compromised cloud server chooses its bytes,
// so DecodeReport is attacker-facing and must survive arbitrary input.
// The target decodes fuzzed bytes and, when a decode succeeds, pushes the
// result through re-encoding (must round-trip), signature verification and
// the full startup appraisal — none of which may panic.

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

func reportSeeds() [][]byte {
	vcek := fuzzIdentity("seed-vcek")
	image := cryptoutil.Hash("seed-image")
	signed := &sevsnp.Report{
		Version:    2,
		GuestSVN:   1,
		Policy:     0x30000,
		LaunchHash: sevsnp.LaunchMeasurement(image),
		ReportData: sevsnp.NonceData(fuzzNonce("seed")),
		TCB:        sevsnp.CurrentTCB,
	}
	sevsnp.SignReport(signed, vcek)
	valid := sevsnp.EncodeReport(signed)

	unsigned := *signed
	unsigned.Sig = nil
	stale := *signed
	stale.TCB = sevsnp.RolledBackTCB
	sevsnp.SignReport(&stale, vcek)

	// An oversize signature-length claim, a truncated frame, and trailing
	// garbage exercise the three framing rejections.
	overclaim := append([]byte(nil), valid...)
	overclaim[len(valid)-len(signed.Sig)-2] = 0xFF
	return [][]byte{
		valid,
		sevsnp.EncodeReport(&unsigned),
		sevsnp.EncodeReport(&stale),
		overclaim,
		valid[:20],
		append(append([]byte(nil), valid...), 0x00),
		{},
	}
}

func FuzzReportDecode(f *testing.F) {
	for _, s := range reportSeeds() {
		f.Add(s)
	}
	vcek := fuzzIdentity("fuzz-vcek").Public()
	image := cryptoutil.Hash("fuzz-image")
	nonce := fuzzNonce("fuzz")
	refs := driver.Refs{
		ServerAIK:     vcek,
		ExpectedImage: image,
		Vid:           "vm-1",
		MinTCB:        sevsnp.CurrentTCB,
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := sevsnp.DecodeReport(data)
		if err == nil {
			// Strict framing means decode/encode is a bijection on the
			// accepted set: re-encoding must reproduce the input bytes.
			if !bytes.Equal(sevsnp.EncodeReport(r), data) {
				t.Fatalf("decoded report does not re-encode to its input")
			}
			_ = sevsnp.VerifyReport(r, vcek)
		}
		// The appraiser sees the raw bytes before any decode: it must
		// return a verdict, never panic, whatever the report claims.
		v := driver.AppraiseStartup(driver.BackendSEVSNP, []properties.Measurement{
			{Kind: properties.KindAttestationReport, Report: data},
		}, nonce, refs)
		if v.Healthy {
			t.Fatalf("fuzzed report appraised healthy: %s", v.Reason)
		}
	})
}

// TestRegenFuzzSeeds rewrites the committed seed corpus under
// testdata/fuzz from the real report builders. Run with REGEN_FUZZ_SEEDS=1
// after changing the report format.
func TestRegenFuzzSeeds(t *testing.T) {
	if os.Getenv("REGEN_FUZZ_SEEDS") == "" {
		t.Skip("set REGEN_FUZZ_SEEDS=1 to rewrite testdata/fuzz seeds")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzReportDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, s := range reportSeeds() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s)
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
