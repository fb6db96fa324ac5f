// Conformance suite: every trust backend must satisfy the same
// attester/verifier contract — evidence over a fresh nonce appraises
// healthy, evidence is single-use (wrong nonce rejected), tampered
// evidence is rejected, and a wrong image is blamed on the image. Backend-
// specific scenarios (the sev-snp firmware rollback) and the capability
// matrix ride along, plus the per-backend appraisal-cost benchmarks behind
// EXPERIMENTS.md.
package driver_test

import (
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"sort"
	"testing"

	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/trust/driver"
	"cloudmonatt/internal/trust/driver/sevsnp"
)

// platform is the boot chain each conformance driver measures; golden is
// its known-good catalog on the verifier side.
var platform = map[string][]byte{
	"firmware":        []byte("seabios-1.7 pristine"),
	"hypervisor":      []byte("xen-4.2 pristine"),
	"host-os":         []byte("dom0-linux-3.8 pristine"),
	"platform-config": []byte("cloudmonatt-node.conf v1"),
}

func goldenPlatform() map[string][32]byte {
	out := make(map[string][32]byte, len(platform))
	for name, data := range platform {
		out[name] = sha256.Sum256(data)
	}
	return out
}

// openDriver provisions backend b as a cloud server would: the pristine
// boot chain measured, one VM added.
func openDriver(t testing.TB, b driver.Backend, tcb driver.TCBVersion, image [32]byte) driver.Driver {
	t.Helper()
	return provision(t, b, driver.Config{ServerName: "conformance-" + string(b), Rand: rand.Reader, TCB: tcb}, platform, image)
}

// provision opens backend b, measures the given boot chain (in name order,
// so the log is reproducible) and adds vm-1.
func provision(t testing.TB, b driver.Backend, cfg driver.Config, boot map[string][]byte, image [32]byte) driver.Driver {
	t.Helper()
	drv, err := driver.Open(b, cfg)
	if err != nil {
		t.Fatalf("open %s: %v", b, err)
	}
	names := make([]string, 0, len(boot))
	for name := range boot {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := drv.BootMeasure(name, boot[name]); err != nil {
			t.Fatalf("boot-measuring %s: %v", name, err)
		}
	}
	if err := drv.AddVM("vm-1", image); err != nil {
		t.Fatalf("adding VM: %v", err)
	}
	return drv
}

// collect gathers the startup-integrity measurement set exactly as the
// Monitor Module does: the driver's platform evidence plus the directly
// reported image digest.
func collect(t testing.TB, drv driver.Driver, nonce cryptoutil.Nonce, image [32]byte) []properties.Measurement {
	t.Helper()
	ev, err := drv.PlatformEvidence("vm-1", nonce, 0)
	if err != nil {
		t.Fatalf("platform evidence: %v", err)
	}
	return []properties.Measurement{ev, {Kind: properties.KindImageDigest, Digest: image}}
}

func refsFor(drv driver.Driver, image [32]byte) driver.Refs {
	return driver.Refs{
		ServerAIK:      drv.AttestationKey(),
		PlatformGolden: goldenPlatform(),
		ExpectedImage:  image,
		Vid:            "vm-1",
		MinTCB:         sevsnp.CurrentTCB,
	}
}

// tamper flips one bit of the signed evidence payload, whichever field the
// backend carries it in.
func tamper(ms []properties.Measurement) {
	for i := range ms {
		switch {
		case len(ms[i].Report) > 0:
			ms[i].Report = append([]byte(nil), ms[i].Report...)
			ms[i].Report[20] ^= 0x01 // inside the launch-hash field
			return
		case len(ms[i].QuoteVal) > 0:
			vals := append([][32]byte(nil), ms[i].QuoteVal...)
			vals[0][0] ^= 0x01
			ms[i].QuoteVal = vals
			return
		}
	}
	panic("no signed evidence to tamper with")
}

func TestConformance(t *testing.T) {
	backends := driver.Backends()
	if len(backends) < 3 {
		t.Fatalf("expected tpm, vtpm and sev-snp in the table, have %v", backends)
	}
	image := sha256.Sum256([]byte("pristine-image"))
	for _, b := range backends {
		t.Run(string(b), func(t *testing.T) {
			drv := openDriver(t, b, driver.TCBVersion{}, image)
			if drv.Backend() != b {
				t.Fatalf("driver reports backend %s, opened %s", drv.Backend(), b)
			}
			refs := refsFor(drv, image)

			t.Run("fresh-nonce-healthy", func(t *testing.T) {
				// Two rounds: evidence generation must work repeatedly, each
				// bound to its own fresh nonce.
				for round := 0; round < 2; round++ {
					nonce := cryptoutil.MustNonce()
					v := driver.AppraiseStartup(b, collect(t, drv, nonce, image), nonce, refs)
					if !v.Healthy {
						t.Fatalf("round %d: healthy evidence appraised unhealthy: %s", round, v.Reason)
					}
					if v.Unattestable {
						t.Fatalf("round %d: healthy evidence marked unattestable", round)
					}
				}
			})

			t.Run("wrong-nonce-rejected", func(t *testing.T) {
				ms := collect(t, drv, cryptoutil.MustNonce(), image)
				v := driver.AppraiseStartup(b, ms, cryptoutil.MustNonce(), refs)
				if v.Healthy {
					t.Fatal("evidence for another nonce appraised healthy (replay accepted)")
				}
				if v.Class != properties.FailurePlatform {
					t.Fatalf("replay blamed on %q, want platform", v.Class)
				}
			})

			t.Run("tampered-evidence-rejected", func(t *testing.T) {
				nonce := cryptoutil.MustNonce()
				ms := collect(t, drv, nonce, image)
				tamper(ms)
				v := driver.AppraiseStartup(b, ms, nonce, refs)
				if v.Healthy {
					t.Fatal("tampered evidence appraised healthy")
				}
			})

			t.Run("wrong-image-blames-image", func(t *testing.T) {
				wrong := sha256.Sum256([]byte("trojaned-image"))
				drv2 := openDriver(t, b, driver.TCBVersion{}, wrong)
				nonce := cryptoutil.MustNonce()
				v := driver.AppraiseStartup(b, collect(t, drv2, nonce, wrong), nonce, refsFor(drv2, image))
				if v.Healthy {
					t.Fatal("wrong image appraised healthy")
				}
				if v.Class != properties.FailureImage {
					t.Fatalf("wrong image blamed on %q, want image", v.Class)
				}
			})

			t.Run("missing-evidence-rejected", func(t *testing.T) {
				v := driver.AppraiseStartup(b, nil, cryptoutil.MustNonce(), refs)
				if v.Healthy {
					t.Fatal("empty measurement set appraised healthy")
				}
			})
		})
	}
}

// TestRollbackDetection is the sev-snp stale-firmware scenario: the
// platform's launch measurement is correct, so every measurement check
// passes, but the reported security version is below the fleet floor — the
// appraisal must fail on platform version alone ("Insecure Until Proven
// Updated", arXiv:1908.11680).
func TestRollbackDetection(t *testing.T) {
	image := sha256.Sum256([]byte("pristine-image"))
	drv := openDriver(t, driver.BackendSEVSNP, sevsnp.RolledBackTCB, image)
	refs := refsFor(drv, image)
	nonce := cryptoutil.MustNonce()
	v := driver.AppraiseStartup(driver.BackendSEVSNP, collect(t, drv, nonce, image), nonce, refs)
	if v.Healthy {
		t.Fatal("rolled-back platform appraised healthy")
	}
	if v.Class != properties.FailurePlatform {
		t.Fatalf("rollback blamed on %q, want platform", v.Class)
	}
	if v.Details["tcb"] != sevsnp.RolledBackTCB.String() || v.Details["min-tcb"] != sevsnp.CurrentTCB.String() {
		t.Fatalf("verdict details missing the version pair: %v", v.Details)
	}
	// Same platform, verifier floor lowered to the stale version: healthy —
	// the failure is the policy comparison, not the evidence.
	refs.MinTCB = sevsnp.RolledBackTCB
	v = driver.AppraiseStartup(driver.BackendSEVSNP, collect(t, drv, nonce, image), nonce, refs)
	if !v.Healthy {
		t.Fatalf("stale platform under a matching floor appraised unhealthy: %s", v.Reason)
	}
}

// TestCapabilityMatrix pins each backend's property coverage: where the
// paper's catalog is attestable, and where appraisal must yield V_fail.
func TestCapabilityMatrix(t *testing.T) {
	want := map[driver.Backend]map[properties.Property]bool{
		driver.BackendTPM: {
			properties.StartupIntegrity:     true,
			properties.RuntimeIntegrity:     true,
			properties.CovertChannelFreedom: true,
			properties.CPUAvailability:      true,
		},
		driver.BackendVTPM: {
			properties.StartupIntegrity:     true,
			properties.RuntimeIntegrity:     true,
			properties.CovertChannelFreedom: false,
			properties.CPUAvailability:      false,
		},
		driver.BackendSEVSNP: {
			properties.StartupIntegrity:     true,
			properties.RuntimeIntegrity:     false,
			properties.CovertChannelFreedom: true,
			properties.CPUAvailability:      true,
		},
	}
	for b, props := range want {
		for p, attestable := range props {
			if got := driver.Attestable(b, p); got != attestable {
				t.Errorf("Attestable(%s, %s) = %v, want %v", b, p, got, attestable)
			}
			req, err := driver.MapToMeasurements(b, p)
			if attestable {
				if err != nil {
					t.Errorf("MapToMeasurements(%s, %s): %v", b, p, err)
				} else if len(req.Kinds) == 0 {
					t.Errorf("MapToMeasurements(%s, %s): empty request", b, p)
				}
			} else if err == nil {
				t.Errorf("MapToMeasurements(%s, %s) succeeded for an unattestable property", b, p)
			}
		}
		var attestable []properties.Property
		for _, p := range properties.All {
			if props[p] {
				attestable = append(attestable, p)
			}
		}
		if got := driver.AttestableProps(b); fmt.Sprint(got) != fmt.Sprint(attestable) {
			t.Errorf("AttestableProps(%s) = %v, want %v", b, got, attestable)
		}
	}
}

// BenchmarkStartupEvidence measures per-backend evidence generation and
// reports the evidence size (EXPERIMENTS.md appraisal-cost table).
func BenchmarkStartupEvidence(b *testing.B) {
	image := sha256.Sum256([]byte("pristine-image"))
	for _, backend := range driver.Backends() {
		b.Run(string(backend), func(b *testing.B) {
			drv := openDriver(b, backend, driver.TCBVersion{}, image)
			nonce := cryptoutil.MustNonce()
			ms := collect(b, drv, nonce, image)
			var size int
			for _, m := range ms {
				size += len(m.AppendWire(nil))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := drv.PlatformEvidence("vm-1", nonce, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(size), "evidence-bytes")
		})
	}
}

// BenchmarkStartupAppraisal measures per-backend verification time over a
// fixed healthy measurement set.
func BenchmarkStartupAppraisal(b *testing.B) {
	image := sha256.Sum256([]byte("pristine-image"))
	for _, backend := range driver.Backends() {
		b.Run(string(backend), func(b *testing.B) {
			drv := openDriver(b, backend, driver.TCBVersion{}, image)
			refs := refsFor(drv, image)
			nonce := cryptoutil.MustNonce()
			ms := collect(b, drv, nonce, image)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if v := driver.AppraiseStartup(backend, ms, nonce, refs); !v.Healthy {
					b.Fatalf("unhealthy: %s", v.Reason)
				}
			}
		})
	}
}
