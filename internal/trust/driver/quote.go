package driver

import (
	"fmt"
	"strconv"
	"strings"

	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/tpm"
)

// The tpm and vtpm backends carry the same thing in a measurement: a TPM
// quote over a PCR selection plus the event log that explains it, the log
// as "pcr:description" names aligned with their digests. This file is the
// one codec for it, attester side and verifier side. The verifier side
// reads bytes a compromised cloud server chose (arXiv:1908.11680), so it
// checks every length and index before anything indexes by them.

// quoteEvidence quotes the selected PCRs of t under the verifier's nonce
// and renders the quote and t's measurement log from event logFrom on as
// evidence of the given kind. Quote and log are one read of the TPM, so the
// log explains the quote whatever is launched meanwhile.
func quoteEvidence(t *tpm.TPM, kind properties.MeasurementKind, pcrs []int, nonce cryptoutil.Nonce, logFrom int) (properties.Measurement, error) {
	q, events, err := t.QuoteWithLog(pcrs, nonce, logFrom)
	if err != nil {
		return properties.Measurement{}, err
	}
	meas := properties.Measurement{Kind: kind, QuoteSig: q.Sig, QuoteVal: q.Values,
		QuotePCR: make([]uint32, 0, len(q.PCRs))}
	for _, p := range q.PCRs {
		meas.QuotePCR = append(meas.QuotePCR, uint32(p))
	}
	if len(events) > 0 {
		meas.LogNames = make([]string, 0, len(events))
		meas.LogSums = make([][32]byte, 0, len(events))
	}
	for _, e := range events {
		meas.LogNames = append(meas.LogNames, strconv.Itoa(e.PCR)+":"+e.Description)
		meas.LogSums = append(meas.LogSums, e.Measurement)
	}
	return meas, nil
}

// measuredQuote rebuilds the quote a measurement carries, bound to the
// nonce the verifier issued. The wire decoder frames QuotePCR and QuoteVal
// with independent counts, and the quote's signed body carries each index
// as one byte, so neither the pairing nor the range is implied by a clean
// decode or a valid signature: both are checked here.
func measuredQuote(m properties.Measurement, nonce cryptoutil.Nonce) (*tpm.Quote, error) {
	if len(m.QuotePCR) != len(m.QuoteVal) {
		return nil, fmt.Errorf("quote carries %d PCR indices but %d values", len(m.QuotePCR), len(m.QuoteVal))
	}
	q := &tpm.Quote{Nonce: nonce, Sig: m.QuoteSig, Values: m.QuoteVal, PCRs: make([]int, 0, len(m.QuotePCR))}
	for _, pcr := range m.QuotePCR {
		if pcr >= tpm.NumPCRs {
			return nil, fmt.Errorf("quoted PCR %d out of range", pcr)
		}
		q.PCRs = append(q.PCRs, int(pcr))
	}
	return q, nil
}

// measuredLog reconstructs the TPM events from a measurement's
// "pcr:description" log names; what names the log in the error text ("" or
// "vTPM ").
func measuredLog(m properties.Measurement, what string) ([]tpm.Event, error) {
	if len(m.LogNames) != len(m.LogSums) {
		return nil, fmt.Errorf("malformed %smeasurement log", what)
	}
	events := make([]tpm.Event, len(m.LogNames))
	for i, n := range m.LogNames {
		pcrStr, desc, ok := strings.Cut(n, ":")
		pcr, err := strconv.Atoi(pcrStr)
		if !ok || err != nil {
			return nil, fmt.Errorf("malformed %slog entry %q", what, n)
		}
		events[i] = tpm.Event{PCR: pcr, Description: desc, Measurement: m.LogSums[i]}
	}
	return events, nil
}

// unexplainedPCR returns the first quoted PCR whose value the replayed bank
// does not reproduce.
func unexplainedPCR(q *tpm.Quote, replayed [tpm.NumPCRs]tpm.Digest) (int, bool) {
	for i, pcr := range q.PCRs {
		if replayed[pcr] != q.Values[i] {
			return pcr, true
		}
	}
	return 0, false
}
