// Package sevsnp is the evidence format of the simulated SEV-SNP
// confidential-VM trust backend: an attestation report in the style of the
// AMD secure processor's — a launch measurement over the guest image, the
// verifier's nonce bound in as report data, and the platform's TCB
// security-version vector, all signed by a per-server VCEK-style key. The
// attester that emits these reports and the appraiser that judges them
// live in the parent driver package; this package is the bytes only, and
// imports nothing from it.
package sevsnp

import (
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"

	"cloudmonatt/internal/cryptoutil"
)

// TCBVersion is the platform security-version vector a confidential-VM
// backend reports: the secure-processor bootloader, trusted OS, SNP
// firmware and microcode SVNs. A platform is acceptable only if every
// component is at or above the verifier's floor — the defense against the
// "Insecure Until Proven Updated" firmware-rollback attack
// (arXiv:1908.11680).
type TCBVersion struct {
	Bootloader uint8
	TEE        uint8
	SNP        uint8
	Microcode  uint8
}

// AtLeast reports whether every component of t meets the floor min.
func (t TCBVersion) AtLeast(min TCBVersion) bool {
	return t.Bootloader >= min.Bootloader && t.TEE >= min.TEE &&
		t.SNP >= min.SNP && t.Microcode >= min.Microcode
}

// IsZero reports whether no version is set.
func (t TCBVersion) IsZero() bool { return t == TCBVersion{} }

// String renders the vector as bootloader.tee.snp.microcode.
func (t TCBVersion) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", t.Bootloader, t.TEE, t.SNP, t.Microcode)
}

// CurrentTCB is the fleet-current platform security version the simulated
// secure processor ships with; verifiers default their rollback floor to
// it.
var CurrentTCB = TCBVersion{Bootloader: 3, TEE: 1, SNP: 22, Microcode: 213}

// RolledBackTCB is a stale firmware version below CurrentTCB — what a
// platform looks like after the downgrade step of a rollback attack.
var RolledBackTCB = TCBVersion{Bootloader: 3, TEE: 1, SNP: 8, Microcode: 170}

// DefaultPolicy is the guest policy word carried in reports (debug off,
// migration off — the bits are opaque to the simulation but signed).
const DefaultPolicy uint64 = 0x30000

// ReportVersion is the only report format version the backend emits or
// appraises.
const ReportVersion uint16 = 2

// reportMagic frames an encoded report.
var reportMagic = [4]byte{'S', 'N', 'P', 'R'}

// maxSigLen bounds the signature field in the wire format.
const maxSigLen = ed25519.SignatureSize

// Report is the simulated attestation report.
type Report struct {
	Version    uint16
	GuestSVN   uint32
	Policy     uint64
	LaunchHash [32]byte // launch measurement over the guest image
	ReportData [32]byte // verifier nonce binding
	TCB        TCBVersion
	Sig        []byte // VCEK signature over the report body
}

// reportBodyLen is the encoded length up to (not including) the signature.
const reportBodyLen = 4 + 2 + 4 + 8 + 32 + 32 + 4

// encodeBody renders everything the VCEK signs.
func encodeBody(r *Report) []byte {
	out := make([]byte, 0, reportBodyLen)
	out = append(out, reportMagic[:]...)
	out = binary.BigEndian.AppendUint16(out, r.Version)
	out = binary.BigEndian.AppendUint32(out, r.GuestSVN)
	out = binary.BigEndian.AppendUint64(out, r.Policy)
	out = append(out, r.LaunchHash[:]...)
	out = append(out, r.ReportData[:]...)
	out = append(out, r.TCB.Bootloader, r.TCB.TEE, r.TCB.SNP, r.TCB.Microcode)
	return out
}

// EncodeReport renders the report canonically: the signed body followed by
// a length-prefixed signature.
func EncodeReport(r *Report) []byte {
	out := encodeBody(r)
	out = binary.BigEndian.AppendUint16(out, uint16(len(r.Sig)))
	return append(out, r.Sig...)
}

// DecodeReport parses an encoded report strictly: exact framing, bounded
// signature, no trailing bytes. It is the attacker-facing parser — a
// compromised cloud server chooses these bytes — so it must reject
// malformed input rather than guess.
func DecodeReport(data []byte) (*Report, error) {
	if len(data) < reportBodyLen+2 {
		return nil, errors.New("sevsnp: report truncated")
	}
	if [4]byte(data[:4]) != reportMagic {
		return nil, errors.New("sevsnp: bad report magic")
	}
	var r Report
	r.Version = binary.BigEndian.Uint16(data[4:6])
	r.GuestSVN = binary.BigEndian.Uint32(data[6:10])
	r.Policy = binary.BigEndian.Uint64(data[10:18])
	copy(r.LaunchHash[:], data[18:50])
	copy(r.ReportData[:], data[50:82])
	r.TCB = TCBVersion{Bootloader: data[82], TEE: data[83], SNP: data[84], Microcode: data[85]}
	sigLen := int(binary.BigEndian.Uint16(data[reportBodyLen : reportBodyLen+2]))
	if sigLen > maxSigLen {
		return nil, fmt.Errorf("sevsnp: signature length %d exceeds %d", sigLen, maxSigLen)
	}
	if len(data) != reportBodyLen+2+sigLen {
		return nil, fmt.Errorf("sevsnp: report length %d does not match frame", len(data))
	}
	if sigLen > 0 {
		r.Sig = append([]byte(nil), data[reportBodyLen+2:]...)
	}
	return &r, nil
}

// SignReport signs the report body with the VCEK and stores the signature.
func SignReport(r *Report, vcek *cryptoutil.Identity) {
	r.Sig = vcek.Sign(encodeBody(r))
}

// VerifyReport checks the VCEK signature over the report body.
func VerifyReport(r *Report, vcek ed25519.PublicKey) error {
	if len(vcek) != ed25519.PublicKeySize {
		return errors.New("sevsnp: malformed VCEK public key")
	}
	if !cryptoutil.Verify(vcek, encodeBody(r), r.Sig) {
		return errors.New("sevsnp: report signature invalid")
	}
	return nil
}

// LaunchMeasurement derives the launch measurement the secure processor
// records for a guest built from the given image.
func LaunchMeasurement(imageDigest [32]byte) [32]byte {
	return cryptoutil.Hash("sev-snp-launch", imageDigest[:])
}

// NonceData derives the report-data field binding the verifier's nonce.
func NonceData(nonce cryptoutil.Nonce) [32]byte {
	return cryptoutil.Hash("sev-snp-report-data", nonce[:])
}
