package driver

import (
	"fmt"
	"sync"

	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/trust/driver/sevsnp"
)

// The sev-snp backend is a simulated SEV-SNP confidential-VM root of
// trust. Its platform evidence is an attestation report (format in
// trust/driver/sevsnp) signed by a per-server VCEK-style key.
//
// The appraiser accepts a report only if the signature verifies, the
// report is bound to the fresh nonce, the launch measurement matches the
// pristine image, and the reported TCB meets the verifier's fleet-minimum
// floor. The last check is the defense against the "Insecure Until Proven
// Updated" rollback attack (arXiv:1908.11680): a platform rolled back to
// exploitable firmware still produces a correct launch measurement, so
// appraisal must fail on the platform version alone.

// sevsnpDriver simulates the SEV-SNP secure processor of one cloud server.
type sevsnpDriver struct {
	vcek *cryptoutil.Identity
	tcb  TCBVersion

	mu       sync.Mutex
	launches map[string][32]byte
}

// openSEVSNP provisions the per-server VCEK and records the platform's
// firmware version (cfg.TCB; zero means fleet-current). Passing an old
// version models the rollback scenario.
func openSEVSNP(cfg Config) (Driver, error) {
	vcek, err := cryptoutil.NewIdentity(cfg.ServerName+"-vcek", cfg.Rand)
	if err != nil {
		return nil, fmt.Errorf("sevsnp: %w", err)
	}
	tcb := cfg.TCB
	if tcb.IsZero() {
		tcb = sevsnp.CurrentTCB
	}
	return &sevsnpDriver{vcek: vcek, tcb: tcb, launches: make(map[string][32]byte)}, nil
}

func (d *sevsnpDriver) Backend() Backend { return BackendSEVSNP }

// AttestationKey returns the VCEK public key.
func (d *sevsnpDriver) AttestationKey() []byte { return d.vcek.Public() }

// BootMeasure accepts and drops host components: the hypervisor stack is
// outside the SNP trust boundary — the secure processor vouches for the
// guest and its own firmware, not the host software.
func (d *sevsnpDriver) BootMeasure(string, []byte) error { return nil }

// AddVM records the guest's launch measurement.
func (d *sevsnpDriver) AddVM(vid string, imageDigest [32]byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.launches[vid]; dup {
		return fmt.Errorf("sevsnp: launch context for %s exists", vid)
	}
	d.launches[vid] = sevsnp.LaunchMeasurement(imageDigest)
	return nil
}

// RemoveVM forgets the guest's launch context.
func (d *sevsnpDriver) RemoveVM(vid string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.launches, vid)
}

// PlatformEvidence produces the signed attestation report for the guest,
// bound to the verifier's nonce. A report carries no log.
func (d *sevsnpDriver) PlatformEvidence(vid string, nonce cryptoutil.Nonce, _ int) (properties.Measurement, error) {
	d.mu.Lock()
	lm, ok := d.launches[vid]
	d.mu.Unlock()
	if !ok {
		return properties.Measurement{}, fmt.Errorf("sevsnp: no launch context for %s", vid)
	}
	r := &sevsnp.Report{
		Version:    sevsnp.ReportVersion,
		GuestSVN:   1,
		Policy:     sevsnp.DefaultPolicy,
		LaunchHash: lm,
		ReportData: sevsnp.NonceData(nonce),
		TCB:        d.tcb,
	}
	sevsnp.SignReport(r, d.vcek)
	return properties.Measurement{Kind: properties.KindAttestationReport, Report: sevsnp.EncodeReport(r)}, nil
}

// appraiseSEVSNP appraises an attestation report: signature, nonce
// binding, launch measurement against the pristine image, and — last, so
// the rollback case demonstrably passes every measurement check first —
// the platform version against the fleet floor.
func appraiseSEVSNP(ms []properties.Measurement, nonce cryptoutil.Nonce, refs Refs) properties.Verdict {
	meas, ok := properties.Find(ms, properties.KindAttestationReport)
	if !ok {
		return unhealthy(properties.FailurePlatform, "missing attestation report", nil)
	}
	r, err := sevsnp.DecodeReport(meas.Report)
	if err != nil {
		return unhealthy(properties.FailurePlatform, "malformed attestation report: "+err.Error(), nil)
	}
	if err := sevsnp.VerifyReport(r, refs.ServerAIK); err != nil {
		return unhealthy(properties.FailurePlatform, "attestation report rejected: "+err.Error(), nil)
	}
	if r.Version != sevsnp.ReportVersion {
		return unhealthy(properties.FailurePlatform, fmt.Sprintf("unsupported report version %d", r.Version), nil)
	}
	want := sevsnp.NonceData(nonce)
	if !cryptoutil.ConstEqual(r.ReportData[:], want[:]) {
		return unhealthy(properties.FailurePlatform, "report not bound to the verifier nonce (replay?)", nil)
	}
	expect := sevsnp.LaunchMeasurement(refs.ExpectedImage)
	if !cryptoutil.ConstEqual(r.LaunchHash[:], expect[:]) {
		return unhealthy(properties.FailureImage, "launch measurement differs from pristine image", nil)
	}
	for _, m := range ms {
		if m.Kind == properties.KindImageDigest && !cryptoutil.ConstEqual(m.Digest[:], refs.ExpectedImage[:]) {
			return unhealthy(properties.FailureImage, "VM image digest mismatch", nil)
		}
	}
	// A verifier that names no floor holds the fleet to the current version.
	minTCB := refs.MinTCB
	if minTCB.IsZero() {
		minTCB = sevsnp.CurrentTCB
	}
	if !r.TCB.AtLeast(minTCB) {
		return unhealthy(properties.FailurePlatform,
			fmt.Sprintf("platform security version %s below the fleet minimum %s (firmware rollback)", r.TCB, minTCB),
			map[string]string{"tcb": r.TCB.String(), "min-tcb": minTCB.String()})
	}
	return properties.Verdict{Property: properties.StartupIntegrity, Healthy: true,
		Reason:  "launch measurement and platform security version match policy",
		Details: map[string]string{"tcb": r.TCB.String()}}
}
