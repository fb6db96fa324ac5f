// Hand-rolled binary wire codec for the eight protocol messages. Every
// message is framed [magic 0xC1][version][tag] followed by fixed-width or
// u32-length-prefixed fields in declaration order — no reflection, no
// per-field interface boxing, and encode appends into a caller-supplied
// buffer so the steady-state hot path allocates nothing.
//
// DecodeWire is strict: it accepts exactly the bytes AppendWire produces
// (canonical booleans, nil empty fields, full consumption), so for every
// message decode∘encode == identity — the invariant FuzzBinaryWireDecode
// pins and TestGoldenVectors freezes byte-for-byte.
package wire

import (
	"fmt"
	"time"

	"cloudmonatt/internal/binenc"
	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/properties"
)

// Message tags of the binary wire format. Tags 9 and 10 are reserved for
// the rpc request/response envelopes (internal/rpc).
const (
	TagAttestRequest       = 1
	TagPeriodicRequest     = 2
	TagStopPeriodicRequest = 3
	TagAppraisalRequest    = 4
	TagMeasureRequest      = 5
	TagEvidence            = 6
	TagReport              = 7
	TagCustomerReport      = 8
)

func finish(rd *binenc.Reader, what string) error {
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
	return finish(&rd, "AttestRequest")
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
	return finish(&rd, "PeriodicRequest")
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
	return finish(&rd, "StopPeriodicRequest")
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
	return finish(&rd, "AppraisalRequest")
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
	return finish(&rd, "MeasureRequest")
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
	return finish(&rd, "Evidence")
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
	return finish(&rd, "Report")
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
	return finish(&rd, "CustomerReport")
}
