package driver

import (
	"crypto/ed25519"
	"fmt"

	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/tpm"
	"cloudmonatt/internal/vtpm"
)

// The vtpm backend is pre-CloudMonatt virtual TPM multiplexing (paper
// §2.2, [8]): each VM gets its own software TPM whose attestation key
// (vAIK) the hardware root endorses. Its startup evidence is a vTPM quote
// over the VM's image PCR.
//
// The capability gap is the point (and is what the paper's critique of
// vTPM attestation predicts): the evidence chain covers the VM, not the
// hosting environment. BootMeasure is accepted but produces nothing a
// verifier sees — a trojaned hypervisor is invisible to this backend — and
// the scheduler-level monitors backed by Trust Evidence Registers
// (covert-channel freedom, CPU availability) have no vtpm cell in the
// capability table, so those properties appraise as unattestable (V_fail).

// vtpmDriver multiplexes per-VM virtual TPMs on one hardware endorsement
// root.
type vtpmDriver struct {
	mgr *vtpm.Manager
}

// openVTPM provisions the vTPM manager and its hardware endorsement key.
func openVTPM(cfg Config) (Driver, error) {
	mgr, err := vtpm.NewManager(cfg.ServerName, cfg.Rand)
	if err != nil {
		return nil, err
	}
	return &vtpmDriver{mgr: mgr}, nil
}

func (d *vtpmDriver) Backend() Backend { return BackendVTPM }

// AttestationKey returns the hardware endorsement-verification key the
// verifier checks vAIK endorsements under.
func (d *vtpmDriver) AttestationKey() []byte { return d.mgr.HardwareKey() }

// BootMeasure accepts and drops platform components: the vTPM evidence
// chain does not cover the host platform — the measurement gap the paper's
// §2.2 critique describes.
func (d *vtpmDriver) BootMeasure(string, []byte) error { return nil }

// AddVM provisions the VM's virtual TPM, endorses its vAIK, and extends
// the pristine image digest into the vTPM's image PCR.
func (d *vtpmDriver) AddVM(vid string, imageDigest [32]byte) error {
	inst, err := d.mgr.Create(vid)
	if err != nil {
		return err
	}
	return inst.TPM.Extend(tpm.PCRVMImage, "vm-image-"+vid, imageDigest)
}

// RemoveVM destroys the VM's vTPM instance.
func (d *vtpmDriver) RemoveVM(vid string) { d.mgr.Destroy(vid) }

// PlatformEvidence produces a vTPM quote over the VM's image PCR bound to
// the verifier's nonce, carrying the vAIK and its hardware endorsement so
// the verifier can chain the quote to the physical root of trust. A vTPM's
// log is the VM's own and does not grow, so it is always sent whole.
func (d *vtpmDriver) PlatformEvidence(vid string, nonce cryptoutil.Nonce, _ int) (properties.Measurement, error) {
	inst, err := d.mgr.Get(vid)
	if err != nil {
		return properties.Measurement{}, err
	}
	meas, err := quoteEvidence(inst.TPM, properties.KindVTPMQuote, []int{tpm.PCRVMImage}, nonce, 0)
	if err != nil {
		return properties.Measurement{}, err
	}
	meas.VKey = append([]byte(nil), inst.TPM.AIK()...)
	meas.Endorse = append([]byte(nil), inst.Endorsement...)
	return meas, nil
}

// appraiseVTPM verifies the endorsement chain (hardware root → vAIK), the
// quote under the vAIK, the log replay, and the VM image. Note what is
// *not* here: no platform components are appraised, because none are in
// the evidence — the backend's documented blind spot.
func appraiseVTPM(ms []properties.Measurement, nonce cryptoutil.Nonce, refs Refs) properties.Verdict {
	quote, ok := properties.Find(ms, properties.KindVTPMQuote)
	if !ok {
		return unhealthy(properties.FailurePlatform, "missing vTPM quote", nil)
	}
	img, ok := properties.Find(ms, properties.KindImageDigest)
	if !ok {
		return unhealthy(properties.FailureImage, "missing image digest", nil)
	}
	vaik := ed25519.PublicKey(quote.VKey)
	if err := vtpm.VerifyEndorsement(refs.ServerAIK, refs.Vid, vaik, quote.Endorse); err != nil {
		return unhealthy(properties.FailurePlatform, "vAIK endorsement rejected: "+err.Error(), nil)
	}
	q, err := measuredQuote(quote, nonce)
	if err == nil {
		err = tpm.VerifyQuote(q, vaik, nonce)
	}
	if err != nil {
		return unhealthy(properties.FailurePlatform, "vTPM quote rejected: "+err.Error(), nil)
	}

	// The vTPM log must explain the quoted PCR and carry our image entry.
	events, err := measuredLog(quote, "vTPM ")
	if err != nil {
		return unhealthy(properties.FailurePlatform, err.Error(), nil)
	}
	imageSeen := false
	for _, e := range events {
		if e.Description == "vm-image-"+refs.Vid {
			imageSeen = true
			if !cryptoutil.ConstEqual(e.Measurement[:], refs.ExpectedImage[:]) {
				return unhealthy(properties.FailureImage, "VM image measurement differs from pristine image",
					map[string]string{"component": e.Description})
			}
		}
	}
	if pcr, bad := unexplainedPCR(q, tpm.ReplayLog([tpm.NumPCRs]tpm.Digest{}, events)); bad {
		return unhealthy(properties.FailurePlatform, fmt.Sprintf("vTPM log does not explain PCR %d", pcr), nil)
	}
	if !imageSeen {
		return unhealthy(properties.FailureImage, "vTPM log carries no measurement for this VM's image", nil)
	}
	if !cryptoutil.ConstEqual(img.Digest[:], refs.ExpectedImage[:]) {
		return unhealthy(properties.FailureImage, "VM image digest mismatch", nil)
	}
	return properties.Verdict{Property: properties.StartupIntegrity, Healthy: true,
		Reason: "vTPM quote chains to the hardware root and the VM image matches (host platform not covered by this backend)"}
}
