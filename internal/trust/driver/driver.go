// Package driver defines the pluggable trust-backend subsystem. The paper
// models the Trust Module as a single TPM-like device per cloud server, but
// real clouds attest heterogeneous hardware — hardware TPMs, per-VM virtual
// TPMs, SEV-SNP confidential VMs — through per-backend drivers (cf. "Remote
// attestation of SEV-SNP confidential VMs using e-vTPMs", arXiv:2303.16463).
//
// A Driver is the attester side: it provisions the backend's attestation
// key, measures the platform boot chain and VM images, and produces the
// platform evidence (quote, vTPM quote, or attestation report) bound to the
// verifier's nonce. The verifier side is the per-backend startup appraiser
// plus the capability table: which security properties of the paper's
// catalog each backend can evidence at all, and with which measurements. A
// property a backend has no cell for yields the paper's V_fail —
// `unattestable` — rather than a healthy-or-compromised verdict.
//
// All three backends live in this package behind one static table, so a
// binary that links the package has every backend the fleet can contain;
// the evidence formats they speak (internal/tpm, internal/vtpm,
// trust/driver/sevsnp) are separate packages that import nothing from
// here. The backend type travels in wire messages, ledger entries, traces
// and metrics end to end.
package driver

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"

	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/trust/driver/sevsnp"
)

// Backend names one trust-backend type. The string form is what travels in
// wire messages and ledger payloads.
type Backend string

const (
	// BackendTPM is the paper's Trust Module: a hardware TPM measuring the
	// platform boot chain, quoting under the module's AIK.
	BackendTPM Backend = "tpm"
	// BackendVTPM is pre-CloudMonatt virtual-TPM multiplexing (paper §2.2):
	// each VM gets a software TPM whose vAIK the hardware root endorses.
	BackendVTPM Backend = "vtpm"
	// BackendSEVSNP is a simulated SEV-SNP confidential-VM backend: evidence
	// is a launch measurement + platform version (TCB/firmware SVN) report
	// signed by a VCEK-style per-server key.
	BackendSEVSNP Backend = "sev-snp"
)

// OrDefault resolves the unset backend to the paper's own Trust Module.
// Configs, server records and appraisal references all leave Backend empty
// to mean "tpm"; this is the one place that is decided.
func (b Backend) OrDefault() Backend {
	if b == "" {
		return BackendTPM
	}
	return b
}

// ParseBackend resolves an operator-supplied backend name.
func ParseBackend(s string) (Backend, error) {
	b := Backend(s)
	if _, ok := backends[b]; !ok {
		return "", fmt.Errorf("driver: unknown trust backend %q (have %v)", s, Backends())
	}
	return b, nil
}

// TCBVersion is the platform security-version vector a confidential-VM
// backend reports; it is part of the sev-snp report format.
type TCBVersion = sevsnp.TCBVersion

// Config provisions a driver for one cloud server.
type Config struct {
	// ServerName names the server the backend is rooted in.
	ServerName string
	// Rand is the entropy source for backend key generation.
	Rand io.Reader
	// TCB is the platform security version a confidential-VM backend
	// reports (zero = the backend's fleet-current version). Setting an old
	// version models a stale-firmware / rollback scenario.
	TCB TCBVersion
}

// Driver is the attester side of one trust backend on one cloud server.
type Driver interface {
	// Backend returns the backend type.
	Backend() Backend
	// AttestationKey is the public key the verifier checks platform
	// evidence under (TPM AIK, vTPM hardware endorsement key, or VCEK),
	// registered in the Attestation Server's database at provisioning.
	AttestationKey() []byte
	// BootMeasure records one platform boot-chain component into the
	// backend's measurement store. Backends whose evidence does not cover
	// the host platform accept and ignore it.
	BootMeasure(name string, data []byte) error
	// AddVM records a VM's pristine image measurement before launch.
	AddVM(vid string, imageDigest [32]byte) error
	// RemoveVM forgets a VM (termination or migration away).
	RemoveVM(vid string)
	// PlatformEvidence produces the backend's platform/startup evidence for
	// the VM, bound to the verifier's nonce. logFrom is how many events of
	// the backend's measurement log the verifier says it has replayed
	// already: a backend whose log grows with the server's history (tpm)
	// sends the events from there on, the others ignore it.
	PlatformEvidence(vid string, nonce cryptoutil.Nonce, logFrom int) (properties.Measurement, error)
}

// Refs are the appraisal inputs for one VM's attestation: what the
// Attestation Server knows from its databases (oat database + nova database
// in the prototype, Fig. 8). It is the one reference type; interpret names
// it References.
type Refs struct {
	// ServerAIK verifies the attested server's platform evidence: the TPM
	// AIK, the vTPM hardware endorsement key, or the VCEK, per Backend.
	ServerAIK ed25519.PublicKey
	// PlatformGolden maps platform component names to known-good digests.
	PlatformGolden map[string][32]byte
	// ApprovedVersions lists additional acceptable platform catalogs (an
	// IMA-style appraiser knows every approved build, not just the newest:
	// a fleet mid-upgrade runs several pristine hypervisor versions at
	// once). A measured component passes if it matches PlatformGolden or
	// any approved catalog.
	ApprovedVersions []map[string][32]byte
	// ExpectedImage is the pristine digest of the VM's image.
	ExpectedImage [32]byte
	// Vid is the attested VM's identifier (to pick its image-log entries).
	Vid string
	// TaskAllowlist is the customer-declared set of legitimate processes.
	TaskAllowlist []string
	// MinCPUShare is the SLA floor for relative CPU usage (0..1).
	MinCPUShare float64
	// Backend identifies the trust backend that rooted the evidence (empty
	// = the classic TPM Trust Module); startup appraisal dispatches on it.
	Backend Backend
	// MinTCB is the minimum acceptable platform security version for
	// confidential-VM backends (rollback floor; zero = the fleet-current
	// version).
	MinTCB TCBVersion
	// LogMemory is this appraisal's copy (LogMemory.For) of what the
	// verifier has replayed of the server's event log already; the evidence
	// was asked for from LogMemory.Count on. nil appraises the evidence as
	// the whole log.
	LogMemory *LogMemory
}

// backend is one row of the backend table.
type backend struct {
	// open provisions the backend's driver on a cloud server.
	open func(Config) (Driver, error)
	// appraise is the verifier-side interpreter for the backend's startup
	// evidence.
	appraise func(ms []properties.Measurement, nonce cryptoutil.Nonce, refs Refs) properties.Verdict
}

var backends = map[Backend]backend{
	BackendTPM:    {open: openTPM, appraise: appraiseTPM},
	BackendVTPM:   {open: openVTPM, appraise: appraiseVTPM},
	BackendSEVSNP: {open: openSEVSNP, appraise: appraiseSEVSNP},
}

// The requests the capability table shares between backends.
var (
	taskList = properties.Request{Kinds: []properties.MeasurementKind{properties.KindTaskList}}
	// Both covert-channel monitors run over the same window: the CPU-interval
	// histogram (case study III) and the bus-lock trace.
	covertMonitors = properties.Request{Kinds: []properties.MeasurementKind{properties.KindIntervalHistogram, properties.KindBusLockTrace}, Window: properties.DefaultWindow}
	cpuTime        = properties.Request{Kinds: []properties.MeasurementKind{properties.KindCPUTime}, Window: properties.DefaultWindow}
)

// capabilities is the capability table: a row per built-in property and a
// column per backend, each cell the measurement request rM that evidences
// the property on that backend (paper §4.1's property→measurement mapping,
// generalized across backend types). A missing cell is the paper's V_fail:
// the backend cannot evidence the property at all.
var capabilities = map[properties.Property]map[Backend]properties.Request{
	// Each backend roots startup integrity in its own evidence: the Trust
	// Module's quote over the platform PCRs with its event log (case study
	// I), a vTPM quote over the VM's own image PCR — the host platform is
	// outside its evidence chain, the gap the paper's §2.2 critique of vTPM
	// attestation predicts — or a signed SEV-SNP launch report.
	properties.StartupIntegrity: {
		BackendTPM:    {Kinds: []properties.MeasurementKind{properties.KindPlatformQuote, properties.KindImageDigest}},
		BackendVTPM:   {Kinds: []properties.MeasurementKind{properties.KindVTPMQuote, properties.KindImageDigest}},
		BackendSEVSNP: {Kinds: []properties.MeasurementKind{properties.KindAttestationReport, properties.KindImageDigest}},
	},
	// VM introspection is hypervisor-level and needs no trust hardware, so
	// it survives on vtpm hosts; SNP memory encryption defeats it.
	properties.RuntimeIntegrity: {
		BackendTPM:  taskList,
		BackendVTPM: taskList,
	},
	// The scheduler-level monitors are backed by Trust Evidence Registers,
	// which a vTPM host does not have. They observe vCPU run segments from
	// outside the guest, so encryption does not hide them on SNP hosts.
	properties.CovertChannelFreedom: {
		BackendTPM:    covertMonitors,
		BackendSEVSNP: covertMonitors,
	},
	properties.CPUAvailability: {
		BackendTPM:    cpuTime,
		BackendSEVSNP: cpuTime,
	},
}

// Backends lists the backend types in stable order.
func Backends() []Backend {
	out := make([]Backend, 0, len(backends))
	for b := range backends {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Open provisions the backend's driver on a cloud server.
func Open(b Backend, cfg Config) (Driver, error) {
	be, ok := backends[b.OrDefault()]
	if !ok {
		return nil, fmt.Errorf("driver: unknown trust backend %q (have %v)", b, Backends())
	}
	return be.open(cfg)
}

// ErrUnattestable marks a property a backend cannot evidence: the paper's
// V_fail outcome, distinct from both healthy and compromised.
var ErrUnattestable = errors.New("driver: property not attestable on this backend")

// Attestable reports whether backend b can evidence property p at all. A
// property without a row is a deployment's custom one, collected and
// interpreted by backend-independent monitor tools, so every backend
// attests it.
func Attestable(b Backend, p properties.Property) bool {
	row, builtin := capabilities[p]
	if !builtin {
		return true
	}
	_, ok := row[b.OrDefault()]
	return ok
}

// AttestableProps lists the built-in properties backend b can evidence, in
// the catalog's order (the server's monitoring capabilities as provisioned
// in the Attestation Server and controller databases).
func AttestableProps(b Backend) []properties.Property {
	var out []properties.Property
	for _, p := range properties.All {
		if _, ok := capabilities[p][b.OrDefault()]; ok {
			out = append(out, p)
		}
	}
	return out
}

// MapToMeasurements returns the capability table's cell for built-in
// property p on backend b: the measurement request rM that evidences it.
// A missing cell, an unknown backend's included, returns ErrUnattestable. A
// custom property's request is its own (interpret.Spec), not the table's.
func MapToMeasurements(b Backend, p properties.Property) (properties.Request, error) {
	row, builtin := capabilities[p]
	if !builtin {
		return properties.Request{}, fmt.Errorf("driver: %q is not a built-in property", p)
	}
	req, ok := row[b.OrDefault()]
	if !ok {
		return properties.Request{}, fmt.Errorf("%w: %s on %s", ErrUnattestable, p, b)
	}
	return req, nil
}

// BuiltinKind reports whether some cell of the capability table requests
// measurement kind k: the Monitor Kernel collects those kinds itself.
func BuiltinKind(k properties.MeasurementKind) bool {
	for _, row := range capabilities {
		for _, req := range row {
			if slices.Contains(req.Kinds, k) {
				return true
			}
		}
	}
	return false
}

// unhealthy builds a failed startup-integrity verdict.
func unhealthy(class properties.FailureClass, reason string, details map[string]string) properties.Verdict {
	return properties.Verdict{Property: properties.StartupIntegrity, Healthy: false, Class: class, Reason: reason, Details: details}
}

// AppraiseStartup dispatches startup-evidence appraisal to backend b's
// interpreter.
func AppraiseStartup(b Backend, ms []properties.Measurement, nonce cryptoutil.Nonce, refs Refs) properties.Verdict {
	be, ok := backends[b.OrDefault()]
	if !ok {
		return unhealthy(properties.FailurePlatform, fmt.Sprintf("unknown trust backend %q", b), nil)
	}
	return be.appraise(ms, nonce, refs)
}
