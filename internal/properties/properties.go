// Package properties defines the security properties a CloudMonatt customer
// can request, the measurement kinds that evidence them, and the measurement
// request rM the Attestation Server translates a requested property P into
// (paper §4.1). Which request evidences a built-in property on which trust
// backend is the capability table of internal/trust/driver.
//
// Each value has one binary encoding, its AppendWire (codec.go): the bytes
// the wire carries are the bytes hashed into the protocol quotes
// (Q3 = H(Vid‖rM‖M‖N3)), so both ends hash them identically.
package properties

import (
	"fmt"
	"time"
)

// Property identifies one security property of a VM (paper §4's case studies).
type Property string

// The four concrete properties realized in the paper.
const (
	// StartupIntegrity: platform and VM image are unmodified at launch
	// (case study I, TPM-style measured boot).
	StartupIntegrity Property = "startup-integrity"
	// RuntimeIntegrity: no hidden/unknown software runs inside the VM
	// (case study II, VM introspection).
	RuntimeIntegrity Property = "runtime-integrity"
	// CovertChannelFreedom: no CPU covert channel is exfiltrating the VM's
	// confidential data (case study III, interval-histogram detection).
	CovertChannelFreedom Property = "covert-channel-freedom"
	// CPUAvailability: the VM receives the CPU share its SLA entitles it to
	// (case study IV, VMM profiling).
	CPUAvailability Property = "cpu-availability"
)

// All lists every built-in property, in catalog order.
var All = []Property{StartupIntegrity, RuntimeIntegrity, CovertChannelFreedom, CPUAvailability}

// Valid reports whether p is a built-in property. A deployment's custom
// properties are values it passes to the testbed (interpret.Spec), not names
// known here.
func Valid(p Property) bool {
	for _, q := range All {
		if p == q {
			return true
		}
	}
	return false
}

// MeasurementKind identifies one type of raw evidence a Monitor Module can
// collect.
type MeasurementKind string

// Measurement kinds produced by the monitor tools.
const (
	// KindPlatformQuote: TPM quote over the platform PCRs plus the
	// measurement log (Integrity Measurement Unit).
	KindPlatformQuote MeasurementKind = "platform-quote"
	// KindImageDigest: digest of the VM image measured before launch.
	KindImageDigest MeasurementKind = "image-digest"
	// KindTaskList: the true in-VM task list via VM introspection.
	KindTaskList MeasurementKind = "task-list"
	// KindIntervalHistogram: 30-bin CPU-usage-interval histogram from the
	// Trust Evidence Registers (Performance Monitor Unit).
	KindIntervalHistogram MeasurementKind = "interval-histogram"
	// KindBusLockTrace: time-binned counts of the VM's locked (bus-
	// serializing) memory operations over the window — the monitor for the
	// memory-bus covert channel (paper §4.4's "other types of covert
	// channels ... with more Trust Evidence Registers and mechanisms").
	KindBusLockTrace MeasurementKind = "bus-lock-trace"
	// KindCPUTime: the VM's virtual running time over a measurement window
	// (VMM Profile Tool).
	KindCPUTime MeasurementKind = "cpu-time"
	// KindVTPMQuote: a virtual-TPM quote over the VM's own PCRs, carrying
	// the vAIK and its hardware endorsement (vtpm trust backend).
	KindVTPMQuote MeasurementKind = "vtpm-quote"
	// KindAttestationReport: an opaque signed attestation report — launch
	// measurement plus platform version (sev-snp trust backend).
	KindAttestationReport MeasurementKind = "attestation-report"
)

// Request rM names the measurements the Attestation Server asks a cloud
// server to collect, with an observation window for the runtime monitors.
type Request struct {
	Kinds  []MeasurementKind
	Window time.Duration // observation window for histogram/cpu-time kinds
}

// DefaultWindow is the runtime monitors' observation window. One second
// spans ~33 scheduler accounting periods — enough for a stable histogram.
const DefaultWindow = time.Second

// Measurement is one collected piece of evidence. Exactly the fields
// relevant to Kind are populated; AppendWire renders it injectively, for
// the wire and for quoting and signing alike.
type Measurement struct {
	Kind MeasurementKind

	// KindPlatformQuote / KindImageDigest
	Digest   [32]byte
	LogNames []string   // measurement log: component names...
	LogSums  [][32]byte // ...and their digests, aligned with LogNames
	QuoteSig []byte     // TPM quote signature (platform quote only)
	QuotePCR []uint32   // quoted PCR indices
	QuoteVal [][32]byte // quoted PCR values, aligned with QuotePCR

	// KindTaskList
	Tasks []string

	// KindIntervalHistogram
	Counters []uint64

	// KindCPUTime
	CPUTime  time.Duration
	WallTime time.Duration

	// KindAttestationReport: the backend-encoded report bytes.
	Report []byte
	// KindVTPMQuote: the per-VM verification key (vAIK) and the hardware
	// root's endorsement of it.
	VKey    []byte
	Endorse []byte
}

// Find returns the first measurement of the given kind.
func Find(ms []Measurement, kind MeasurementKind) (Measurement, bool) {
	for _, m := range ms {
		if m.Kind == kind {
			return m, true
		}
	}
	return Measurement{}, false
}

// FailureClass categorizes an unhealthy verdict by what is at fault, which
// determines the remediation: a compromised image is rejected outright
// (relaunching elsewhere cannot help), a compromised platform is
// rescheduled onto another server (paper §5.1), and a runtime violation is
// reported to the customer.
type FailureClass string

const (
	// FailureUnclassified marks verdicts from interpreters that predate the
	// classification (custom extensions); consumers fall back to inspecting
	// Reason.
	FailureUnclassified FailureClass = ""
	// FailureImage blames the VM image itself.
	FailureImage FailureClass = "image"
	// FailurePlatform blames the hosting platform (hypervisor stack, TPM
	// quote, measurement log).
	FailurePlatform FailureClass = "platform"
	// FailureRuntime blames the VM's runtime behavior (rogue tasks, covert
	// channels, SLA violations).
	FailureRuntime FailureClass = "runtime"
)

// Verdict is the Attestation Server's interpretation of the measurements
// for one property: the attestation report R the customer receives.
type Verdict struct {
	Property Property
	Healthy  bool
	Class    FailureClass // set when !Healthy; empty for healthy verdicts
	Reason   string
	Details  map[string]string
	// Backend records which trust backend's evidence the verdict appraises
	// ("tpm", "vtpm", "sev-snp"); it rides the signed report chain so the
	// customer learns what kind of root of trust vouched for the VM.
	Backend string
	// Unattestable marks the paper's V_fail outcome: the property cannot
	// be evidenced on the VM's trust backend at all, as opposed to being
	// measured and found compromised. Always paired with Healthy=false.
	Unattestable bool
}

// UnattestableVerdict builds the V_fail verdict for a property the VM's
// trust backend cannot evidence.
func UnattestableVerdict(p Property, backend string) Verdict {
	return Verdict{
		Property:     p,
		Healthy:      false,
		Unattestable: true,
		Backend:      backend,
		Reason:       fmt.Sprintf("property %s is not attestable on the %s trust backend", p, backend),
	}
}

// String renders the verdict for humans.
func (v Verdict) String() string {
	state := "HEALTHY"
	switch {
	case v.Unattestable:
		state = "UNATTESTABLE"
	case !v.Healthy:
		state = "COMPROMISED"
	}
	return fmt.Sprintf("%s: %s (%s)", v.Property, state, v.Reason)
}
