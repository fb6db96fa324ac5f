// Package tpm is a software Trusted Platform Module emulator, standing in
// for the TPM-emulator the paper integrates (§6, [39]). It provides the
// subset of TPM function CloudMonatt uses: a PCR bank with SHA-256 extend
// semantics, a measurement (event) log, attestation identity keys, and
// quote generation/verification over a PCR selection plus a nonce.
package tpm

import (
	"crypto/ed25519"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"sync"

	"cloudmonatt/internal/cryptoutil"
)

// NumPCRs is the size of the PCR bank (TPM 1.2 has 24).
const NumPCRs = 24

// Well-known PCR assignments used by the measured-boot model.
const (
	PCRFirmware   = 0 // platform firmware
	PCRHypervisor = 1 // hypervisor binary
	PCRHostOS     = 2 // host VM (Dom0) kernel and userland
	PCRConfig     = 3 // platform configuration files
	PCRVMImage    = 8 // VM image measured before launch (one per launch)
)

// Digest is a SHA-256 measurement value.
type Digest = [32]byte

// Event is one entry of the measurement log: what was measured into which
// PCR. Reset events record that a resettable PCR was cleared, so log
// replay stays in step with the device (TPM 2.0 event logs do the same).
type Event struct {
	PCR         int
	Description string
	Measurement Digest
	Reset       bool
}

// TPM is a software TPM instance. All methods are safe for concurrent use.
type TPM struct {
	mu   sync.Mutex
	pcrs [NumPCRs]Digest
	log  []Event
	aik  *cryptoutil.Identity
}

// New creates a TPM whose attestation identity key is drawn from r.
func New(r io.Reader) (*TPM, error) {
	aik, err := cryptoutil.NewIdentity("tpm-aik", r)
	if err != nil {
		return nil, fmt.Errorf("tpm: %w", err)
	}
	return &TPM{aik: aik}, nil
}

// AIK returns the public attestation identity key that verifies quotes.
func (t *TPM) AIK() ed25519.PublicKey { return t.aik.Public() }

// Measure hashes data and extends the result into pcr, appending to the
// measurement log. It returns the measurement digest.
func (t *TPM) Measure(pcr int, description string, data []byte) (Digest, error) {
	m := sha256.Sum256(data)
	if err := t.Extend(pcr, description, m); err != nil {
		return Digest{}, err
	}
	return m, nil
}

// Extend folds measurement into the named PCR: PCR ← SHA-256(PCR ‖ m).
func (t *TPM) Extend(pcr int, description string, measurement Digest) error {
	if pcr < 0 || pcr >= NumPCRs {
		return fmt.Errorf("tpm: PCR %d out of range", pcr)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h := sha256.New()
	h.Write(t.pcrs[pcr][:])
	h.Write(measurement[:])
	h.Sum(t.pcrs[pcr][:0])
	t.log = append(t.log, Event{PCR: pcr, Description: description, Measurement: measurement})
	return nil
}

// ReadPCR returns the current value of one PCR.
func (t *TPM) ReadPCR(pcr int) (Digest, error) {
	if pcr < 0 || pcr >= NumPCRs {
		return Digest{}, fmt.Errorf("tpm: PCR %d out of range", pcr)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pcrs[pcr], nil
}

// ResetPCR clears one PCR and logs the reset (modeling a resettable PCR
// used for per-attestation measurements; real TPMs restrict which PCRs are
// resettable and their event logs record the reset).
func (t *TPM) ResetPCR(pcr int) error {
	if pcr < 0 || pcr >= NumPCRs {
		return fmt.Errorf("tpm: PCR %d out of range", pcr)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pcrs[pcr] = Digest{}
	t.log = append(t.log, Event{PCR: pcr, Description: "_reset", Reset: true})
	return nil
}

// Log returns a copy of the measurement log.
func (t *TPM) Log() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.log...)
}

// Quote is a signed report of a PCR selection at a point in time, bound to
// a verifier-chosen nonce for freshness.
type Quote struct {
	PCRs   []int
	Values []Digest
	Nonce  cryptoutil.Nonce
	Sig    []byte
}

func quoteBody(q *Quote) []byte {
	fields := make([][]byte, 0, 2*len(q.PCRs)+1)
	for i, p := range q.PCRs {
		fields = append(fields, []byte{byte(p)}, q.Values[i][:])
	}
	fields = append(fields, q.Nonce[:])
	sum := cryptoutil.Hash("tpm-quote", fields...)
	return sum[:]
}

// GenerateQuote signs the current values of the selected PCRs together with
// the nonce.
func (t *TPM) GenerateQuote(pcrs []int, nonce cryptoutil.Nonce) (*Quote, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.quoteLocked(pcrs, nonce)
}

// QuoteWithLog is GenerateQuote plus the measurement log from event number
// from on (nothing when the log is no longer than that), both read in one
// critical section: the quoted values are exactly what the whole log replays
// to, whatever extends the bank meanwhile. A verifier that has replayed the
// first from events already needs no more than this to check the quote.
func (t *TPM) QuoteWithLog(pcrs []int, nonce cryptoutil.Nonce, from int) (*Quote, []Event, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	q, err := t.quoteLocked(pcrs, nonce)
	if err != nil {
		return nil, nil, err
	}
	from = min(max(from, 0), len(t.log))
	return q, append([]Event(nil), t.log[from:]...), nil
}

// quoteLocked is GenerateQuote for callers that hold t.mu.
func (t *TPM) quoteLocked(pcrs []int, nonce cryptoutil.Nonce) (*Quote, error) {
	q := &Quote{PCRs: append([]int(nil), pcrs...), Nonce: nonce}
	for _, p := range pcrs {
		if p < 0 || p >= NumPCRs {
			return nil, fmt.Errorf("tpm: PCR %d out of range", p)
		}
		q.Values = append(q.Values, t.pcrs[p])
	}
	q.Sig = t.aik.Sign(quoteBody(q))
	return q, nil
}

// VerifyQuote checks the quote's signature under aik and that its nonce
// matches the one the verifier supplied.
func VerifyQuote(q *Quote, aik ed25519.PublicKey, nonce cryptoutil.Nonce) error {
	if q == nil {
		return errors.New("tpm: nil quote")
	}
	if len(q.PCRs) != len(q.Values) {
		return errors.New("tpm: malformed quote")
	}
	// The signed body carries each index as one byte, so p and p+256 sign
	// alike: an out-of-range index must be refused here, not left for the
	// signature to catch.
	for _, p := range q.PCRs {
		if p < 0 || p >= NumPCRs {
			return fmt.Errorf("tpm: quoted PCR %d out of range", p)
		}
	}
	if q.Nonce != nonce {
		return errors.New("tpm: quote nonce mismatch (replay?)")
	}
	if !cryptoutil.Verify(aik, quoteBody(q), q.Sig) {
		return errors.New("tpm: quote signature invalid")
	}
	return nil
}

// ReplayLog recomputes the PCR values a measurement log leads to from the
// bank pcrs (the zero bank for a whole log, the bank an earlier replay ended
// on for the events after it). An appraiser uses this to check that a quote
// is explained by the log and that each logged component is known-good.
func ReplayLog(pcrs [NumPCRs]Digest, events []Event) [NumPCRs]Digest {
	for _, e := range events {
		if e.PCR < 0 || e.PCR >= NumPCRs {
			continue
		}
		if e.Reset {
			pcrs[e.PCR] = Digest{}
			continue
		}
		h := sha256.New()
		h.Write(pcrs[e.PCR][:])
		h.Write(e.Measurement[:])
		h.Sum(pcrs[e.PCR][:0])
	}
	return pcrs
}
