// Hand-rolled binary wire codec: the eight protocol messages here, the
// management-plane messages this package owns in mgmt.go, and the tag of
// every other message. Every message is framed [magic 0xC1][version][tag] followed by fixed-width or
// u32-length-prefixed fields in declaration order — no reflection, no
// per-field interface boxing, and encode appends into a caller-supplied
// buffer so the steady-state hot path allocates nothing.
//
// DecodeWire is strict: it accepts exactly the bytes AppendWire produces
// (canonical booleans, nil empty fields, full consumption), so for every
// message decode∘encode == identity — the invariant FuzzBinaryWireDecode
// and each package's FuzzMgmtDecode pin and the golden vectors freeze
// byte-for-byte.
package wire

import (
	"fmt"
	"time"

	"cloudmonatt/internal/binenc"
	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/properties"
)

// Message tags of the binary wire format: one tag space for everything
// that crosses a secure channel, declared here and nowhere else (the rpc
// envelopes' 9 and 10 live in internal/rpc, which this package's tests
// import). 1-8 are the Fig. 3 protocol messages; 11 and up are the
// management plane, each implemented by the package that owns the Go type.
// DESIGN.md section 14 says who sends and who accepts each.
const (
	TagAttestRequest       = 1
	TagPeriodicRequest     = 2
	TagStopPeriodicRequest = 3
	TagAppraisalRequest    = 4
	TagMeasureRequest      = 5
	TagEvidence            = 6
	TagReport              = 7
	TagCustomerReport      = 8
	// 9, 10: rpc request and response envelope.
	TagVidRequest = 11 // wire.VidRequest
	TagVMStatus   = 12 // wire.VMStatus
	// 13: retired with the per-report drain reply; not to be reused.
	TagPeriodicBatch     = 14 // attestsrv.PeriodicBatch
	TagLaunchRequest     = 15 // controller.LaunchRequest
	TagLaunchResult      = 16 // controller.LaunchResult
	TagVMSummaryList     = 17 // controller.VMSummaryList
	TagResponseEventList = 18 // controller.ResponseEventList
	TagLaunchSpec        = 19 // server.LaunchSpec
	TagVMInfo            = 20 // server.VMInfo
	TagVMRecord          = 21 // attestsrv.VMRecord
	TagPeriodicControl   = 22 // attestsrv.PeriodicControl
	TagRebindRequest     = 23 // attestsrv.RebindRequest
	TagCustomerBatch     = 24 // wire.CustomerBatch
	// 32-39: the evidence ledger's records, which cross no channel
	// (internal/ledger/record.go).
)

// Finish closes a message decoder: nil only when the cursor consumed the
// whole input without error, otherwise the error under the message's name.
func Finish(rd *binenc.Reader, what string) error {
	if err := rd.Done(); err != nil {
		return fmt.Errorf("wire: decoding %s: %w", what, err)
	}
	return nil
}

// AppendWire appends the message's binary encoding to b.
func (m AttestRequest) AppendWire(b []byte) []byte {
	b = binenc.AppendHeader(b, TagAttestRequest)
	b = binenc.AppendString(b, m.Vid)
	b = binenc.AppendString(b, string(m.Prop))
	b = append(b, m.N1[:]...)
	b = binenc.AppendString(b, m.Trace)
	return b
}

// DecodeWire strictly decodes the message from its binary encoding.
func (m *AttestRequest) DecodeWire(data []byte) error {
	rd := binenc.NewReader(data)
	rd.Header(TagAttestRequest)
	*m = AttestRequest{}
	m.Vid = rd.String()
	m.Prop = properties.Property(rd.String())
	rd.Fixed(m.N1[:])
	m.Trace = rd.String()
	return Finish(&rd, "AttestRequest")
}

// AppendWire appends the message's binary encoding to b.
func (m PeriodicRequest) AppendWire(b []byte) []byte {
	b = binenc.AppendHeader(b, TagPeriodicRequest)
	b = binenc.AppendString(b, m.Vid)
	b = binenc.AppendString(b, string(m.Prop))
	b = binenc.AppendUint64(b, uint64(m.Freq))
	b = binenc.AppendBool(b, m.Random)
	b = append(b, m.N1[:]...)
	b = binenc.AppendString(b, m.Trace)
	return b
}

// DecodeWire strictly decodes the message from its binary encoding.
func (m *PeriodicRequest) DecodeWire(data []byte) error {
	rd := binenc.NewReader(data)
	rd.Header(TagPeriodicRequest)
	*m = PeriodicRequest{}
	m.Vid = rd.String()
	m.Prop = properties.Property(rd.String())
	m.Freq = time.Duration(rd.Uint64())
	m.Random = rd.Bool()
	rd.Fixed(m.N1[:])
	m.Trace = rd.String()
	return Finish(&rd, "PeriodicRequest")
}

// AppendWire appends the message's binary encoding to b.
func (m StopPeriodicRequest) AppendWire(b []byte) []byte {
	b = binenc.AppendHeader(b, TagStopPeriodicRequest)
	b = binenc.AppendString(b, m.Vid)
	b = binenc.AppendString(b, string(m.Prop))
	b = append(b, m.N1[:]...)
	b = binenc.AppendString(b, m.Trace)
	return b
}

// DecodeWire strictly decodes the message from its binary encoding.
func (m *StopPeriodicRequest) DecodeWire(data []byte) error {
	rd := binenc.NewReader(data)
	rd.Header(TagStopPeriodicRequest)
	*m = StopPeriodicRequest{}
	m.Vid = rd.String()
	m.Prop = properties.Property(rd.String())
	rd.Fixed(m.N1[:])
	m.Trace = rd.String()
	return Finish(&rd, "StopPeriodicRequest")
}

// AppendWire appends the message's binary encoding to b.
func (m AppraisalRequest) AppendWire(b []byte) []byte {
	b = binenc.AppendHeader(b, TagAppraisalRequest)
	b = binenc.AppendString(b, m.Vid)
	b = binenc.AppendString(b, m.ServerID)
	b = binenc.AppendString(b, string(m.Prop))
	b = append(b, m.N2[:]...)
	return b
}

// DecodeWire strictly decodes the message from its binary encoding.
func (m *AppraisalRequest) DecodeWire(data []byte) error {
	rd := binenc.NewReader(data)
	rd.Header(TagAppraisalRequest)
	*m = AppraisalRequest{}
	m.Vid = rd.String()
	m.ServerID = rd.String()
	m.Prop = properties.Property(rd.String())
	rd.Fixed(m.N2[:])
	return Finish(&rd, "AppraisalRequest")
}

// AppendWire appends the message's binary encoding to b.
func (m MeasureRequest) AppendWire(b []byte) []byte {
	b = binenc.AppendHeader(b, TagMeasureRequest)
	b = binenc.AppendString(b, m.Vid)
	b = m.Req.AppendWire(b)
	b = append(b, m.N3[:]...)
	b = binenc.AppendUint32(b, m.LogFrom)
	return b
}

// DecodeWire strictly decodes the message from its binary encoding.
func (m *MeasureRequest) DecodeWire(data []byte) error {
	rd := binenc.NewReader(data)
	rd.Header(TagMeasureRequest)
	*m = MeasureRequest{}
	m.Vid = rd.String()
	m.Req.ReadWire(&rd)
	rd.Fixed(m.N3[:])
	m.LogFrom = rd.Uint32()
	return Finish(&rd, "MeasureRequest")
}

// AppendWire appends the message's binary encoding to b.
func (m Evidence) AppendWire(b []byte) []byte {
	b = binenc.AppendHeader(b, TagEvidence)
	b = binenc.AppendString(b, m.Vid)
	b = m.Req.AppendWire(b)
	b = properties.AppendWireAll(b, m.Measurements)
	b = append(b, m.N3[:]...)
	b = append(b, m.Q3[:]...)
	b = binenc.AppendString(b, m.Backend)
	b = binenc.AppendBytes(b, m.AVK)
	if m.Cert != nil {
		b = binenc.AppendBool(b, true)
		b = m.Cert.AppendWire(b)
	} else {
		b = binenc.AppendBool(b, false)
	}
	b = binenc.AppendBytes(b, m.Sig)
	return b
}

// DecodeWire strictly decodes the message from its binary encoding.
func (m *Evidence) DecodeWire(data []byte) error {
	rd := binenc.NewReader(data)
	rd.Header(TagEvidence)
	*m = Evidence{}
	m.Vid = rd.String()
	m.Req.ReadWire(&rd)
	m.Measurements = properties.ReadWireAll(&rd)
	rd.Fixed(m.N3[:])
	rd.Fixed(m.Q3[:])
	m.Backend = rd.String()
	m.AVK = rd.Bytes()
	if rd.Bool() {
		m.Cert = new(cryptoutil.Certificate)
		m.Cert.ReadWire(&rd)
	}
	m.Sig = rd.Bytes()
	return Finish(&rd, "Evidence")
}

// AppendWire appends the message's binary encoding to b.
func (m Report) AppendWire(b []byte) []byte {
	b = binenc.AppendHeader(b, TagReport)
	b = binenc.AppendString(b, m.Vid)
	b = binenc.AppendString(b, m.ServerID)
	b = binenc.AppendString(b, string(m.Prop))
	b = m.Verdict.AppendWire(b)
	b = append(b, m.N2[:]...)
	b = append(b, m.Q2[:]...)
	b = binenc.AppendBytes(b, m.Sig)
	return b
}

// DecodeWire strictly decodes the message from its binary encoding.
func (m *Report) DecodeWire(data []byte) error {
	rd := binenc.NewReader(data)
	rd.Header(TagReport)
	*m = Report{}
	m.Vid = rd.String()
	m.ServerID = rd.String()
	m.Prop = properties.Property(rd.String())
	m.Verdict.ReadWire(&rd)
	rd.Fixed(m.N2[:])
	rd.Fixed(m.Q2[:])
	m.Sig = rd.Bytes()
	return Finish(&rd, "Report")
}

// AppendWire appends the message's binary encoding to b.
func (m CustomerReport) AppendWire(b []byte) []byte {
	b = binenc.AppendHeader(b, TagCustomerReport)
	b = binenc.AppendString(b, m.Vid)
	b = binenc.AppendString(b, string(m.Prop))
	b = m.Verdict.AppendWire(b)
	b = append(b, m.N1[:]...)
	b = append(b, m.Q1[:]...)
	b = binenc.AppendBool(b, m.Stale)
	b = binenc.AppendUint64(b, uint64(m.Age))
	b = binenc.AppendBytes(b, m.Sig)
	return b
}

// DecodeWire strictly decodes the message from its binary encoding.
func (m *CustomerReport) DecodeWire(data []byte) error {
	rd := binenc.NewReader(data)
	rd.Header(TagCustomerReport)
	*m = CustomerReport{}
	m.Vid = rd.String()
	m.Prop = properties.Property(rd.String())
	m.Verdict.ReadWire(&rd)
	rd.Fixed(m.N1[:])
	rd.Fixed(m.Q1[:])
	m.Stale = rd.Bool()
	m.Age = time.Duration(rd.Uint64())
	m.Sig = rd.Bytes()
	return Finish(&rd, "CustomerReport")
}
