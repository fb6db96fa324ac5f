package driver

import (
	"fmt"
	"slices"
	"strings"

	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/tpm"
)

// The tpm backend is the paper's own Trust Module: a hardware TPM as the
// Integrity Measurement Unit's storage root. The attester side measures
// the platform boot chain and VM images into the TPM's PCRs and quotes
// them under its AIK; the verifier side is the measured-boot appraisal of
// case study I — quote verification, log replay, and component-by-
// component comparison against known-good builds.

// quotedPCRs is the selection every platform quote covers, in order: the
// boot chain's four PCRs and the VM image PCR.
var quotedPCRs = []int{tpm.PCRFirmware, tpm.PCRHypervisor, tpm.PCRHostOS, tpm.PCRConfig, tpm.PCRVMImage}

// tpmDriver roots platform evidence in a (hardware) TPM.
type tpmDriver struct {
	t *tpm.TPM
}

// openTPM provisions the server's TPM; its AIK is the attestation key the
// server registers.
func openTPM(cfg Config) (Driver, error) {
	t, err := tpm.New(cfg.Rand)
	if err != nil {
		return nil, err
	}
	return &tpmDriver{t: t}, nil
}

func (d *tpmDriver) Backend() Backend { return BackendTPM }

// AttestationKey returns the TPM's AIK.
func (d *tpmDriver) AttestationKey() []byte { return d.t.AIK() }

// componentPCR maps a platform component to the PCR it extends.
func componentPCR(name string) int {
	switch name {
	case "firmware":
		return tpm.PCRFirmware
	case "hypervisor":
		return tpm.PCRHypervisor
	case "host-os":
		return tpm.PCRHostOS
	default:
		return tpm.PCRConfig
	}
}

// BootMeasure measures a platform component into its boot-chain PCR.
func (d *tpmDriver) BootMeasure(name string, data []byte) error {
	if _, err := d.t.Measure(componentPCR(name), name, data); err != nil {
		return fmt.Errorf("driver: measuring %s: %w", name, err)
	}
	return nil
}

// AddVM extends the VM's pristine image digest into the image PCR.
func (d *tpmDriver) AddVM(vid string, imageDigest [32]byte) error {
	return d.t.Extend(tpm.PCRVMImage, imagePrefix+vid, imageDigest)
}

// RemoveVM is a no-op: PCR history is append-only, so the image extension
// stays in the log, exactly as the Trust Module behaved.
func (d *tpmDriver) RemoveVM(string) {}

// PlatformEvidence produces the measured-boot evidence: a TPM quote over
// the platform PCRs bound to the verifier's nonce, plus the measurement log
// from event logFrom on. With what the verifier replayed before, that is the
// whole log that explains the quote.
func (d *tpmDriver) PlatformEvidence(_ string, nonce cryptoutil.Nonce, logFrom int) (properties.Measurement, error) {
	return quoteEvidence(d.t, properties.KindPlatformQuote, quotedPCRs, nonce, logFrom)
}

// imagePrefix starts the description of a VM image's log entry; the vid
// follows.
const imagePrefix = "vm-image-"

// imageEntry returns the vid of a VM image entry. An entry is one only on
// the image PCR: a description that starts with imagePrefix anywhere else
// is a platform component like any other.
func imageEntry(e tpm.Event) (string, bool) {
	if e.PCR != tpm.PCRVMImage {
		return "", false
	}
	return strings.CutPrefix(e.Description, imagePrefix)
}

// appraiseTPM appraises the platform quote and the VM image digest (case
// study I). The verdict distinguishes a compromised platform from a
// compromised image because the remediation differs (reschedule vs.
// reject, paper §5.1).
//
// The evidence carries the log from refs.LogMemory.Count on and is judged on
// top of what that memory holds of the events before: every event meets
// every check below once, when it is replayed. What makes that as sound as
// replaying the whole log each time is that the quoted value is signed by
// the AIK, the bank the replay starts from is the verifier's own, and
// SHA-256 extend is a hash chain: events that lead from the one to the other
// are the log's.
func appraiseTPM(ms []properties.Measurement, nonce cryptoutil.Nonce, refs Refs) properties.Verdict {
	quote, ok := properties.Find(ms, properties.KindPlatformQuote)
	if !ok {
		return unhealthy(properties.FailurePlatform, "missing platform quote", nil)
	}
	img, ok := properties.Find(ms, properties.KindImageDigest)
	if !ok {
		return unhealthy(properties.FailureImage, "missing image digest", nil)
	}
	mem := refs.LogMemory
	if mem == nil {
		mem = new(LogMemory) // the evidence is the whole log; what it teaches is dropped
	}

	// 1. The quote signature must verify under the server's TPM AIK and be
	// bound to our nonce, and the quote must cover what it is asked for:
	// the attester signs any selection it likes, and one without the boot
	// chain's PCRs leaves the log of the boot chain unchecked against
	// anything.
	q, err := measuredQuote(quote, nonce)
	if err == nil {
		err = tpm.VerifyQuote(q, refs.ServerAIK, nonce)
	}
	if err != nil {
		return unhealthy(properties.FailurePlatform, "platform quote rejected: "+err.Error(), nil)
	}
	if !slices.Equal(q.PCRs, quotedPCRs) {
		return unhealthy(properties.FailurePlatform, fmt.Sprintf("platform quote covers PCRs %v, not %v", q.PCRs, quotedPCRs), nil)
	}

	// 2. The measurement log must explain the quoted PCR values: the carried
	// events, replayed from where the remembered ones ended, land on every
	// one of them.
	events, err := measuredLog(quote, "")
	if err != nil {
		return unhealthy(properties.FailurePlatform, err.Error(), nil)
	}
	bank := tpm.ReplayLog(mem.Bank, events)
	if pcr, bad := unexplainedPCR(q, bank); bad {
		mem.miss(missReplay)
		return unhealthy(properties.FailurePlatform, fmt.Sprintf("measurement log does not explain PCR %d", pcr), nil)
	}

	// 3. Every logged platform component must be known-good; our VM's image
	// entry must be there and match the expected image. (Other VMs' image
	// entries are appraised by their own attestations.) Remembered events
	// passed when they were replayed; of them only our image entry, which
	// another VM's appraisal may have replayed, is still to judge.
	seen, imageSeen := mem.images[refs.Vid]
	if imageSeen && (seen.conflict || !cryptoutil.ConstEqual(seen.digest[:], refs.ExpectedImage[:])) {
		return unhealthy(properties.FailureImage, "VM image measurement differs from pristine image",
			map[string]string{"component": imagePrefix + refs.Vid})
	}
	for _, e := range events {
		name := e.Description
		if vid, isImage := imageEntry(e); isImage {
			if vid != refs.Vid {
				continue
			}
			imageSeen = true
			if !cryptoutil.ConstEqual(e.Measurement[:], refs.ExpectedImage[:]) {
				return unhealthy(properties.FailureImage, "VM image measurement differs from pristine image",
					map[string]string{"component": name})
			}
			continue
		}
		if !approvedComponent(refs, name, e.Measurement) {
			if _, known := refs.PlatformGolden[name]; !known && !knownInAnyVersion(refs, name) {
				return unhealthy(properties.FailurePlatform, "unknown software measured into platform",
					map[string]string{"component": name})
			}
			return unhealthy(properties.FailurePlatform, "platform component differs from known-good build",
				map[string]string{"component": name})
		}
	}
	if !imageSeen {
		mem.miss(missEntry)
		return unhealthy(properties.FailureImage, "measurement log carries no measurement for this VM's image", nil)
	}

	// 4. Belt and braces: the directly reported image digest must also match.
	if !cryptoutil.ConstEqual(img.Digest[:], refs.ExpectedImage[:]) {
		return unhealthy(properties.FailureImage, "VM image digest mismatch", nil)
	}
	mem.advance(bank, events)
	return properties.Verdict{Property: properties.StartupIntegrity, Healthy: true,
		Reason: "platform and VM image match known-good measurements"}
}

// approvedComponent checks a measured component against every approved
// catalog.
func approvedComponent(refs Refs, name string, m [32]byte) bool {
	if golden, ok := refs.PlatformGolden[name]; ok && cryptoutil.ConstEqual(m[:], golden[:]) {
		return true
	}
	for _, cat := range refs.ApprovedVersions {
		if golden, ok := cat[name]; ok && cryptoutil.ConstEqual(m[:], golden[:]) {
			return true
		}
	}
	return false
}

// knownInAnyVersion reports whether any approved catalog names the component.
func knownInAnyVersion(refs Refs, name string) bool {
	for _, cat := range refs.ApprovedVersions {
		if _, ok := cat[name]; ok {
			return true
		}
	}
	return false
}
