// Package baseline implements the pre-CloudMonatt state of the art the
// paper compares against (§2.2): vTPM-based *binary* attestation, where the
// customer attests the VM directly through its virtual TPM and an in-guest
// measurement agent.
//
// The flow is faithful to the classic design — and therefore inherits its
// two structural blind spots, which the comparison bench demonstrates:
//
//  1. the measurement agent runs *inside* the guest OS, so once the guest
//     is compromised, the agent reports what the attacker lets it see
//     (a rootkit's hidden processes never reach the vTPM);
//  2. the vTPM only sees the VM itself, so attacks mounted from the VM's
//     *environment* — co-resident covert channels, scheduler starvation —
//     are entirely outside its measurement model.
package baseline

import (
	"crypto/ed25519"
	"crypto/sha256"
	"errors"
	"fmt"

	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/guest"
	"cloudmonatt/internal/tpm"
	"cloudmonatt/internal/vtpm"
)

// PCR assignments inside the virtual TPM.
const (
	vpcrBoot  = 0 // guest boot chain, extended at VM boot
	vpcrTasks = 8 // running-task measurements, extended by the in-guest agent
)

// Agent is the in-guest measurement agent: the component the TCG
// integrity-measurement architecture requires inside the attested system.
// It can only measure what the guest OS shows it.
type Agent struct {
	vid  string
	g    *guest.OS
	inst *vtpm.Instance
}

// Install provisions a vTPM instance for the VM and measures the guest's
// boot chain into it (the launch-time phase of binary attestation).
func Install(mgr *vtpm.Manager, vid string, g *guest.OS) (*Agent, error) {
	inst, err := mgr.Create(vid)
	if err != nil {
		return nil, err
	}
	for _, c := range g.BootChain() {
		if _, err := inst.TPM.Measure(vpcrBoot, c.Name, c.Data); err != nil {
			return nil, err
		}
	}
	return &Agent{vid: vid, g: g, inst: inst}, nil
}

// MeasureRuntime extends the current task list into the vTPM — as the guest
// OS reports it. A rootkit that filters itself from in-guest queries is
// invisible here; this is the design flaw, not a bug.
func (a *Agent) MeasureRuntime() ([]string, error) {
	if err := a.inst.TPM.ResetPCR(vpcrTasks); err != nil {
		return nil, err
	}
	var names []string
	for _, p := range a.g.GuestVisibleTasks() {
		names = append(names, p.Name)
		if _, err := a.inst.TPM.Measure(vpcrTasks, "task:"+p.Name, []byte(p.Name)); err != nil {
			return nil, err
		}
	}
	return names, nil
}

// Evidence is the binary-attestation response the guest returns to the
// customer: a vTPM quote, the measurement log explaining it, the reported
// task list, and the endorsement chaining the vAIK to hardware.
type Evidence struct {
	Vid         string
	Quote       *tpm.Quote
	Log         []tpm.Event
	Tasks       []string
	VAIK        []byte
	Endorsement []byte
}

// Attest serves a customer's challenge: measure, quote, respond.
func (a *Agent) Attest(nonce cryptoutil.Nonce) (*Evidence, error) {
	tasks, err := a.MeasureRuntime()
	if err != nil {
		return nil, err
	}
	q, err := a.inst.TPM.GenerateQuote([]int{vpcrBoot, vpcrTasks}, nonce)
	if err != nil {
		return nil, err
	}
	return &Evidence{
		Vid:         a.vid,
		Quote:       q,
		Log:         a.inst.TPM.Log(),
		Tasks:       tasks,
		VAIK:        append([]byte(nil), a.inst.TPM.AIK()...),
		Endorsement: a.inst.Endorsement,
	}, nil
}

// References is what the customer knows: the hardware endorsement key, the
// pristine guest boot-chain digests, and the expected task set.
type References struct {
	HardwareKey   ed25519.PublicKey
	GoldenBoot    map[string][32]byte
	TaskAllowlist []string
}

// Verdict is the customer's binary-attestation conclusion.
type Verdict struct {
	Healthy bool
	Reason  string
}

// Verify is the customer-side appraisal of binary-attestation evidence:
// endorsement chain, quote signature and nonce, log replay, and comparison
// with the golden values. It is *sound for what it can see* — the blind
// spots are in what never reaches the evidence.
func Verify(ev *Evidence, nonce cryptoutil.Nonce, refs References) (Verdict, error) {
	if ev == nil {
		return Verdict{}, errors.New("baseline: nil evidence")
	}
	if err := vtpm.VerifyEndorsement(refs.HardwareKey, ev.Vid, ed25519.PublicKey(ev.VAIK), ev.Endorsement); err != nil {
		return Verdict{}, err
	}
	if err := tpm.VerifyQuote(ev.Quote, ed25519.PublicKey(ev.VAIK), nonce); err != nil {
		return Verdict{}, err
	}
	replayed := tpm.ReplayLog([tpm.NumPCRs]tpm.Digest{}, ev.Log)
	for i, pcr := range ev.Quote.PCRs {
		if replayed[pcr] != ev.Quote.Values[i] {
			return Verdict{}, fmt.Errorf("baseline: log does not explain PCR %d", pcr)
		}
	}
	// Boot-chain appraisal: every boot event must be known-good.
	for _, e := range ev.Log {
		if e.PCR != vpcrBoot {
			continue
		}
		if golden, ok := refs.GoldenBoot[e.Description]; !ok || e.Measurement != golden {
			return Verdict{Healthy: false, Reason: "guest boot component " + e.Description + " modified"}, nil
		}
	}
	// Task appraisal against the allowlist — of the *reported* tasks.
	allowed := make(map[string]bool, len(refs.TaskAllowlist))
	for _, n := range refs.TaskAllowlist {
		allowed[n] = true
	}
	for _, task := range ev.Tasks {
		if !allowed[task] {
			return Verdict{Healthy: false, Reason: "unknown task " + task}, nil
		}
	}
	return Verdict{Healthy: true, Reason: "binary measurements match golden values"}, nil
}

// GoldenBoot computes the pristine guest boot references.
func GoldenBoot() map[string][32]byte {
	out := make(map[string][32]byte)
	for _, c := range guest.NewOS().BootChain() {
		out[c.Name] = sha256.Sum256(c.Data)
	}
	return out
}

// Supports reports whether binary attestation can evidence a given threat
// at all. The environment-level threats return false: there is no vTPM
// measurement that could carry them — the structural limitation CloudMonatt
// exists to fix.
func Supports(threat string) bool {
	switch threat {
	case "boot-tamper", "visible-malware":
		return true
	case "rootkit", "covert-channel", "cpu-starvation":
		return false
	}
	return false
}
