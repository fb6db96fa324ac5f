// Rejection tests and the fuzz target for the startup appraisers. The
// conformance suite checks what every backend must accept and the coarse
// rejections they share; this file walks every branch of the TPM and vTPM
// appraisers with evidence a compromised cloud server could send, including
// the two shapes that used to crash the Attestation Server.
package driver_test

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"cloudmonatt/internal/binenc"
	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/tpm"
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
		// The attester picks the selection its TPM signs. Over the image PCR
		// alone, a log without the trojaned hypervisor explains the quote.
		{name: "quote-without-boot-chain", backends: tpmOnly,
			mutate: func(a *appraisal) { ownQuote(a, tpm.PCRVMImage) },
			class:  properties.FailurePlatform, reason: "platform quote covers PCRs [8]"},
		// An image entry is one on the image PCR only: relabelled anywhere
		// else, a component is still judged.
		{name: "image-label-off-image-pcr", backends: tpmOnly, boot: bootWith("rootkit", "lkm"),
			mutate: func(a *appraisal) {
				for i, n := range a.ms[0].LogNames {
					if n == "3:rootkit" {
						a.ms[0].LogNames[i] = "3:vm-image-x"
					}
				}
			},
			class: properties.FailurePlatform, reason: "unknown software"},
		{name: "image-entry-mismatch", backends: both, launched: "trojaned-image",
			class: properties.FailureImage, reason: "VM image measurement differs"},
		{name: "image-entry-absent", backends: both,
			mutate: func(a *appraisal) {
				// Replay ignores descriptions, so the quote stays explained.
				for i, n := range a.ms[0].LogNames {
					if n == "8:vm-image-vm-1" {
						a.ms[0].LogNames[i] = "8:vm-image-other"
					}
				}
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
				drv := provision(t, b, driver.Config{ServerName: "rejections", Rand: rand.Reader}, boot, launched)
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

// ownQuote replaces a's tpm evidence with what a compromised host can send
// instead: its TPM, booted with a trojaned hypervisor and the pristine image
// launched, quotes the PCRs the host picks under its genuine AIK, and the log
// carries the events of those PCRs alone.
func ownQuote(a *appraisal, pcrs ...int) {
	t, err := tpm.New(rand.Reader)
	if err != nil {
		panic(err)
	}
	if _, err := t.Measure(tpm.PCRHypervisor, "hypervisor", []byte("xen-4.2 trojaned")); err != nil {
		panic(err)
	}
	if err := t.Extend(tpm.PCRVMImage, "vm-image-vm-1", pristineImage()); err != nil {
		panic(err)
	}
	q, events, err := t.QuoteWithLog(pcrs, a.nonce, 0)
	if err != nil {
		panic(err)
	}
	m := properties.Measurement{Kind: properties.KindPlatformQuote, QuoteSig: q.Sig, QuoteVal: q.Values}
	for _, p := range q.PCRs {
		m.QuotePCR = append(m.QuotePCR, uint32(p))
	}
	for _, e := range events {
		if slices.Contains(pcrs, e.PCR) {
			m.LogNames = append(m.LogNames, strconv.Itoa(e.PCR)+":"+e.Description)
			m.LogSums = append(m.LogSums, e.Measurement)
		}
	}
	a.ms[0], a.refs.ServerAIK = m, t.AIK()
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

// appraiseSeed is one corpus entry: evidence in wire form and what the
// verifier remembers of the attester's log when it arrives.
type appraiseSeed struct {
	evidence []byte
	count    uint16
	bank     []byte
}

// remembered builds the memory a seed describes: count events replayed to
// the bank given as its PCR values end to end (short is zero-padded).
func remembered(count uint16, bank []byte) *driver.LogMemory {
	mem := &driver.LogMemory{Count: int(count)}
	for i := range mem.Bank {
		if len(bank) < 32 {
			break
		}
		copy(mem.Bank[i][:], bank)
		bank = bank[32:]
	}
	return mem
}

// appraiseSeeds is the seed corpus: genuine evidence from each backend, the
// two crashers from TestAppraiseRejections, and the tpm attester's answer to
// a verifier that has replayed its boot chain already, with that memory, with
// none and with a wrong one.
func appraiseSeeds(t testing.TB) []appraiseSeed {
	fleet := fuzzFleet(t)
	var seeds []appraiseSeed
	for _, b := range driver.Backends() {
		seeds = append(seeds, appraiseSeed{evidence: properties.AppendWireAll(nil, fleet[b].ms)})
	}
	unpaired := fleet[driver.BackendTPM].ms
	unpaired[0].QuoteVal = unpaired[0].QuoteVal[:1]
	seeds = append(seeds, appraiseSeed{evidence: properties.AppendWireAll(nil, unpaired)})
	aliased := fleet[driver.BackendVTPM].ms
	aliased[0].QuotePCR[0] += 256
	seeds = append(seeds, appraiseSeed{evidence: properties.AppendWireAll(nil, aliased)})

	// The boot chain is the log's first four events; the bank they replay to
	// is what an appraisal of them alone would have remembered.
	whole := fuzzFleet(t)[driver.BackendTPM]
	boot := whole.ms[0]
	boot.LogNames, boot.LogSums = boot.LogNames[:4], boot.LogSums[:4]
	var bank []byte
	for _, v := range replayBank(t, boot) {
		bank = append(bank, v[:]...)
	}
	rest := whole.ms
	rest[0].LogNames, rest[0].LogSums = rest[0].LogNames[4:], rest[0].LogSums[4:]
	suffix := properties.AppendWireAll(nil, rest)
	return append(seeds,
		appraiseSeed{evidence: suffix, count: 4, bank: bank},
		appraiseSeed{evidence: suffix},
		appraiseSeed{evidence: suffix, count: 4, bank: bank[32:]})
}

// replayBank replays the log a platform quote carries from the zero bank.
func replayBank(t testing.TB, quote properties.Measurement) [tpm.NumPCRs][32]byte {
	t.Helper()
	var events []tpm.Event
	for i, n := range quote.LogNames {
		pcr, desc, _ := strings.Cut(n, ":")
		p, err := strconv.Atoi(pcr)
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, tpm.Event{PCR: p, Description: desc, Measurement: quote.LogSums[i]})
	}
	return tpm.ReplayLog([tpm.NumPCRs]tpm.Digest{}, events)
}

// FuzzAppraiseStartup feeds attacker-chosen evidence bytes through the wire
// decoder into all three appraisers, on top of an arbitrary memory of the
// attester's log. A compromised cloud server picks these bytes, and nothing
// on the Attestation Server recovers a panic, so every appraiser must turn
// anything that decodes into a verdict; and whatever the verifier remembers,
// only a healthy verdict may move it, only forward, and a miss is always an
// unhealthy verdict over a memory that is not empty.
func FuzzAppraiseStartup(f *testing.F) {
	for _, s := range appraiseSeeds(f) {
		f.Add(s.evidence, s.count, s.bank)
	}
	fleet := fuzzFleet(f)
	f.Fuzz(func(t *testing.T, data []byte, count uint16, bank []byte) {
		rd := binenc.NewReader(data)
		ms := properties.ReadWireAll(&rd)
		for b, a := range fleet {
			mem := remembered(count, bank)
			before := *mem
			refs := a.refs
			refs.LogMemory = mem
			v := driver.AppraiseStartup(b, ms, a.nonce, refs)
			if !v.Healthy && v.Class == properties.FailureUnclassified {
				t.Fatalf("%s: unhealthy verdict without a failure class: %s", b, v.Reason)
			}
			if !v.Healthy && (mem.Count != before.Count || mem.Bank != before.Bank) {
				t.Fatalf("%s: an unhealthy verdict moved the memory from %d to %d events", b, before.Count, mem.Count)
			}
			if mem.Count < before.Count {
				t.Fatalf("%s: memory moved back from %d to %d events", b, before.Count, mem.Count)
			}
			if mem.Miss != "" && (v.Healthy || before.Count == 0) {
				t.Fatalf("%s: miss %q beside healthy=%v over %d remembered events", b, mem.Miss, v.Healthy, before.Count)
			}
		}
	})
}

// TestFuzzSeedsGenuine checks the seed corpus is what it claims: each
// backend's genuine evidence appraises healthy on its own backend after a
// wire round trip, so the fuzzer starts from the accepting path; so does the
// tpm log's tail on top of the memory of its head, which with no memory is
// the verdict of a log without a boot chain and with a wrong one a miss.
func TestFuzzSeedsGenuine(t *testing.T) {
	seeds := appraiseSeeds(t)
	fleet := fuzzFleet(t)
	appraise := func(b driver.Backend, s appraiseSeed) (properties.Verdict, *driver.LogMemory) {
		t.Helper()
		rd := binenc.NewReader(s.evidence)
		ms := properties.ReadWireAll(&rd)
		if err := rd.Done(); err != nil {
			t.Fatalf("%s seed does not decode: %v", b, err)
		}
		refs := fleet[b].refs
		refs.LogMemory = remembered(s.count, s.bank)
		return driver.AppraiseStartup(b, ms, fleet[b].nonce, refs), refs.LogMemory
	}
	for i, b := range driver.Backends() {
		if v, _ := appraise(b, seeds[i]); !v.Healthy {
			t.Fatalf("%s seed appraised unhealthy: %s", b, v.Reason)
		}
	}
	tail := seeds[len(seeds)-3:]
	if v, mem := appraise(driver.BackendTPM, tail[0]); !v.Healthy || mem.Count != 5 {
		t.Fatalf("log tail over the memory of its head: %+v, %d events remembered", v, mem.Count)
	}
	if v, mem := appraise(driver.BackendTPM, tail[1]); v.Healthy || mem.Miss != "" || !strings.Contains(v.Reason, "does not explain PCR 0") {
		t.Fatalf("log tail over no memory: %+v, miss %q", v, mem.Miss)
	}
	if v, mem := appraise(driver.BackendTPM, tail[2]); v.Healthy || mem.Miss != "replay-mismatch" || mem.Count != 4 {
		t.Fatalf("log tail over a wrong memory: %+v, miss %q, %d events remembered", v, mem.Miss, mem.Count)
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
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\nuint16(%d)\n[]byte(%q)\n", s.evidence, s.count, s.bank)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
