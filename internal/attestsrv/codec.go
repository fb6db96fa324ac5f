package attestsrv

import (
	"math"
	"time"

	"cloudmonatt/internal/binenc"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/wire"
)

// The controller-facing management messages in the codec of
// internal/wire/codec.go.

// AppendWire appends the message's binary encoding to b.
func (m VMRecord) AppendWire(b []byte) []byte {
	b = binenc.AppendHeader(b, wire.TagVMRecord)
	b = binenc.AppendString(b, m.Vid)
	b = append(b, m.ExpectedImage[:]...)
	b = binenc.AppendUint32(b, uint32(len(m.TaskAllowlist)))
	for _, t := range m.TaskAllowlist {
		b = binenc.AppendString(b, t)
	}
	b = binenc.AppendUint64(b, math.Float64bits(m.MinCPUShare))
	return b
}

// DecodeWire strictly decodes the message from its binary encoding.
func (m *VMRecord) DecodeWire(data []byte) error {
	rd := binenc.NewReader(data)
	rd.Header(wire.TagVMRecord)
	*m = VMRecord{}
	m.Vid = rd.String()
	rd.Fixed(m.ExpectedImage[:])
	n := rd.Count(4)
	for i := 0; i < n && rd.Err() == nil; i++ {
		m.TaskAllowlist = append(m.TaskAllowlist, rd.String())
	}
	m.MinCPUShare = math.Float64frombits(rd.Uint64())
	return wire.Finish(&rd, "VMRecord")
}

// AppendWire appends the message's binary encoding to b.
func (m PeriodicControl) AppendWire(b []byte) []byte {
	b = binenc.AppendHeader(b, wire.TagPeriodicControl)
	b = binenc.AppendString(b, m.Vid)
	b = binenc.AppendString(b, m.ServerID)
	b = binenc.AppendString(b, string(m.Prop))
	b = binenc.AppendUint64(b, uint64(m.Freq))
	b = binenc.AppendBool(b, m.Random)
	return b
}

// DecodeWire strictly decodes the message from its binary encoding.
func (m *PeriodicControl) DecodeWire(data []byte) error {
	rd := binenc.NewReader(data)
	rd.Header(wire.TagPeriodicControl)
	*m = PeriodicControl{}
	m.Vid = rd.String()
	m.ServerID = rd.String()
	m.Prop = properties.Property(rd.String())
	m.Freq = time.Duration(rd.Uint64())
	m.Random = rd.Bool()
	return wire.Finish(&rd, "PeriodicControl")
}

// AppendWire appends the message's binary encoding to b: the loss counts,
// then each report framed as the Report message it is.
func (m PeriodicBatch) AppendWire(b []byte) []byte {
	b = binenc.AppendHeader(b, wire.TagPeriodicBatch)
	b = binenc.AppendUint64(b, m.Dropped)
	b = binenc.AppendUint64(b, m.Skipped)
	b = binenc.AppendUint32(b, uint32(len(m.Reports)))
	for _, r := range m.Reports {
		b = wire.AppendFramed(b, r)
	}
	return b
}

// DecodeWire strictly decodes the message from its binary encoding.
func (m *PeriodicBatch) DecodeWire(data []byte) error {
	rd := binenc.NewReader(data)
	rd.Header(wire.TagPeriodicBatch)
	*m = PeriodicBatch{}
	m.Dropped = rd.Uint64()
	m.Skipped = rd.Uint64()
	n := rd.Count(4)
	for i := 0; i < n && rd.Err() == nil; i++ {
		r := new(wire.Report)
		if err := r.DecodeWire(rd.BytesView()); err != nil {
			rd.Fail(err)
		}
		m.Reports = append(m.Reports, r)
	}
	return wire.Finish(&rd, "PeriodicBatch")
}

// AppendWire appends the message's binary encoding to b.
func (m RebindRequest) AppendWire(b []byte) []byte {
	b = binenc.AppendHeader(b, wire.TagRebindRequest)
	b = binenc.AppendString(b, m.Vid)
	b = binenc.AppendString(b, m.ServerID)
	return b
}

// DecodeWire strictly decodes the message from its binary encoding.
func (m *RebindRequest) DecodeWire(data []byte) error {
	rd := binenc.NewReader(data)
	rd.Header(wire.TagRebindRequest)
	*m = RebindRequest{}
	m.Vid = rd.String()
	m.ServerID = rd.String()
	return wire.Finish(&rd, "RebindRequest")
}
