// Rejection tests and the fuzz target for the startup appraisers. The
// conformance suite checks what every backend must accept and the coarse
// rejections they share; this file walks every branch of the TPM and vTPM
// appraisers with evidence a compromised cloud server could send, including
// the two shapes that used to crash the Attestation Server.
package driver_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cloudmonatt/internal/binenc"
	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/trust/driver"
)

// appraisal is one call to the appraiser: what a test case mutates.
// ms[0] is the backend's platform evidence, ms[1] the image digest.
type appraisal struct {
	ms    []properties.Measurement
	nonce cryptoutil.Nonce
	refs  driver.Refs
}

func pristineImage() [32]byte { return sha256.Sum256([]byte("pristine-image")) }

// bootWith returns the pristine boot chain with one component replaced or
// added.
func bootWith(name, data string) map[string][]byte {
	out := map[string][]byte{name: []byte(data)}
	for n, d := range platform {
		if _, set := out[n]; !set {
			out[n] = d
		}
	}
	return out
}

func TestAppraiseRejections(t *testing.T) {
	tpmOnly := []driver.Backend{driver.BackendTPM}
	vtpmOnly := []driver.Backend{driver.BackendVTPM}
	both := []driver.Backend{driver.BackendTPM, driver.BackendVTPM}
	cases := []struct {
		name     string
		backends []driver.Backend
		boot     map[string][]byte // what the attester booted; nil = pristine
		launched string            // image the attester launched; "" = pristine
		mutate   func(a *appraisal)
		class    properties.FailureClass
		reason   string // substring of the verdict reason
	}{
		{name: "missing-quote", backends: both,
			mutate: func(a *appraisal) { a.ms = a.ms[1:] },
			class:  properties.FailurePlatform, reason: "quote"},
		{name: "missing-digest", backends: both,
			mutate: func(a *appraisal) { a.ms = a.ms[:1] },
			class:  properties.FailureImage, reason: "missing image digest"},
		{name: "wrong-nonce", backends: both,
			mutate: func(a *appraisal) { a.nonce = cryptoutil.MustNonce() },
			class:  properties.FailurePlatform, reason: "quote rejected"},
		{name: "tampered-value", backends: both,
			mutate: func(a *appraisal) { a.ms[0].QuoteVal[0][0] ^= 1 },
			class:  properties.FailurePlatform, reason: "quote rejected"},
		{name: "log-does-not-explain-pcr", backends: both,
			mutate: func(a *appraisal) {
				a.ms[0].LogNames = append(a.ms[0].LogNames, "8:extra")
				a.ms[0].LogSums = append(a.ms[0].LogSums, [32]byte{1})
			},
			class: properties.FailurePlatform, reason: "does not explain PCR 8"},
		{name: "unknown-component", backends: tpmOnly, boot: bootWith("rootkit", "lkm"),
			class: properties.FailurePlatform, reason: "unknown software"},
		{name: "modified-component", backends: tpmOnly, boot: bootWith("hypervisor", "xen-4.2 trojaned"),
			class: properties.FailurePlatform, reason: "differs from known-good build"},
		{name: "image-entry-mismatch", backends: both, launched: "trojaned-image",
			class: properties.FailureImage, reason: "VM image measurement differs"},
		{name: "image-entry-absent", backends: vtpmOnly,
			mutate: func(a *appraisal) {
				// Replay ignores descriptions, so the quote stays explained.
				a.ms[0].LogNames[0] = "8:vm-image-other"
			},
			class: properties.FailureImage, reason: "no measurement for this VM's image"},
		{name: "reported-digest-mismatch", backends: both,
			mutate: func(a *appraisal) { a.ms[1].Digest[0] ^= 1 },
			class:  properties.FailureImage, reason: "VM image digest mismatch"},
		{name: "log-entry-without-colon", backends: both,
			mutate: func(a *appraisal) { a.ms[0].LogNames[0] = "firmware" },
			class:  properties.FailurePlatform, reason: "malformed"},
		{name: "log-entry-non-numeric-pcr", backends: both,
			mutate: func(a *appraisal) { a.ms[0].LogNames[0] = "zero:firmware" },
			class:  properties.FailurePlatform, reason: "malformed"},
		{name: "log-names-sums-unpaired", backends: both,
			mutate: func(a *appraisal) { a.ms[0].LogSums = a.ms[0].LogSums[1:] },
			class:  properties.FailurePlatform, reason: "malformed"},
		{name: "bad-endorsement", backends: vtpmOnly,
			mutate: func(a *appraisal) { a.ms[0].Endorse[0] ^= 1 },
			class:  properties.FailurePlatform, reason: "vAIK endorsement rejected"},
		// The two crashers. The wire decoder frames QuotePCR and QuoteVal
		// with independent counts, so an unpaired quote decodes cleanly; it
		// used to panic the appraiser indexing QuoteVal[i].
		{name: "crasher-unpaired-pcr-values", backends: both,
			mutate: func(a *appraisal) { a.ms[0].QuotePCR = append(a.ms[0].QuotePCR, 9) },
			class:  properties.FailurePlatform, reason: "quote rejected"},
		// The quote body signs byte(pcr), so index+256 still verifies under
		// the genuine key; it used to panic the replay lookup.
		{name: "crasher-aliased-pcr-index", backends: both,
			mutate: func(a *appraisal) { a.ms[0].QuotePCR[0] += 256 },
			class:  properties.FailurePlatform, reason: "out of range"},
	}
	for _, tc := range cases {
		for _, b := range tc.backends {
			t.Run(tc.name+"/"+string(b), func(t *testing.T) {
				boot, launched := tc.boot, pristineImage()
				if boot == nil {
					boot = platform
				}
				if tc.launched != "" {
					launched = sha256.Sum256([]byte(tc.launched))
				}
				drv := provision(t, b, driver.Config{ServerName: "rejections"}, boot, launched)
				a := &appraisal{nonce: cryptoutil.MustNonce(), refs: refsFor(drv, pristineImage())}
				a.ms = collect(t, drv, a.nonce, pristineImage())
				if tc.mutate != nil {
					tc.mutate(a)
				}
				v := driver.AppraiseStartup(b, a.ms, a.nonce, a.refs)
				if v.Healthy || v.Class != tc.class || !strings.Contains(v.Reason, tc.reason) {
					t.Fatalf("verdict healthy=%v class=%q reason=%q, want unhealthy %q containing %q",
						v.Healthy, v.Class, v.Reason, tc.class, tc.reason)
				}
			})
		}
	}
}

// seededRand is a deterministic entropy source, so the committed fuzz seeds
// keep verifying under the keys the fuzz target derives.
type seededRand struct {
	tag string
	ctr uint64
	buf []byte
}

func (r *seededRand) Read(p []byte) (int, error) {
	for i := range p {
		if len(r.buf) == 0 {
			sum := cryptoutil.Hash("fuzz-rand", []byte(r.tag), binary.BigEndian.AppendUint64(nil, r.ctr))
			r.ctr++
			r.buf = sum[:]
		}
		p[i], r.buf = r.buf[0], r.buf[1:]
	}
	return len(p), nil
}

// fuzzFleet provisions one attester per backend from fixed entropy and
// returns each one's appraisal (evidence, nonce, references).
func fuzzFleet(t testing.TB) map[driver.Backend]*appraisal {
	var nonce cryptoutil.Nonce
	sum := cryptoutil.Hash("fuzz-nonce")
	copy(nonce[:], sum[:])
	fleet := make(map[driver.Backend]*appraisal)
	for _, b := range driver.Backends() {
		drv := provision(t, b, driver.Config{ServerName: "fuzz", Rand: &seededRand{tag: string(b)}}, platform, pristineImage())
		fleet[b] = &appraisal{ms: collect(t, drv, nonce, pristineImage()), nonce: nonce, refs: refsFor(drv, pristineImage())}
	}
	return fleet
}

// appraiseSeeds is the seed corpus: genuine evidence from each backend and
// the two crashers from TestAppraiseRejections, in wire form.
func appraiseSeeds(t testing.TB) [][]byte {
	fleet := fuzzFleet(t)
	var seeds [][]byte
	for _, b := range driver.Backends() {
		seeds = append(seeds, properties.AppendWireAll(nil, fleet[b].ms))
	}
	unpaired := fleet[driver.BackendTPM].ms
	unpaired[0].QuoteVal = unpaired[0].QuoteVal[:1]
	seeds = append(seeds, properties.AppendWireAll(nil, unpaired))
	aliased := fleet[driver.BackendVTPM].ms
	aliased[0].QuotePCR[0] += 256
	return append(seeds, properties.AppendWireAll(nil, aliased))
}

// FuzzAppraiseStartup feeds attacker-chosen evidence bytes through the wire
// decoder into all three appraisers. A compromised cloud server picks these
// bytes, and nothing on the Attestation Server recovers a panic, so every
// appraiser must turn anything that decodes into a verdict.
func FuzzAppraiseStartup(f *testing.F) {
	for _, s := range appraiseSeeds(f) {
		f.Add(s)
	}
	fleet := fuzzFleet(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		rd := binenc.NewReader(data)
		ms := properties.ReadWireAll(&rd)
		for b, a := range fleet {
			v := driver.AppraiseStartup(b, ms, a.nonce, a.refs)
			if !v.Healthy && v.Class == properties.FailureUnclassified {
				t.Fatalf("%s: unhealthy verdict without a failure class: %s", b, v.Reason)
			}
		}
	})
}

// TestFuzzSeedsGenuine checks the seed corpus is what it claims: each
// backend's genuine evidence appraises healthy on its own backend after a
// wire round trip, so the fuzzer starts from the accepting path.
func TestFuzzSeedsGenuine(t *testing.T) {
	seeds := appraiseSeeds(t)
	fleet := fuzzFleet(t)
	for i, b := range driver.Backends() {
		rd := binenc.NewReader(seeds[i])
		ms := properties.ReadWireAll(&rd)
		if err := rd.Done(); err != nil {
			t.Fatalf("%s seed does not decode: %v", b, err)
		}
		if v := driver.AppraiseStartup(b, ms, fleet[b].nonce, fleet[b].refs); !v.Healthy {
			t.Fatalf("%s seed appraised unhealthy: %s", b, v.Reason)
		}
	}
}

// TestRegenFuzzSeeds rewrites the committed seed corpus under
// testdata/fuzz from the real drivers. Run with REGEN_FUZZ_SEEDS=1 after
// changing the evidence format.
func TestRegenFuzzSeeds(t *testing.T) {
	if os.Getenv("REGEN_FUZZ_SEEDS") == "" {
		t.Skip("set REGEN_FUZZ_SEEDS=1 to rewrite testdata/fuzz seeds")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzAppraiseStartup")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, s := range appraiseSeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
