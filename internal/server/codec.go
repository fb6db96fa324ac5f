package server

import (
	"time"

	"cloudmonatt/internal/binenc"
	"cloudmonatt/internal/wire"
)

// AppendWire appends the message's binary encoding to b (the codec of
// internal/wire/codec.go).
func (m LaunchSpec) AppendWire(b []byte) []byte {
	b = binenc.AppendHeader(b, wire.TagLaunchSpec)
	b = binenc.AppendString(b, m.Vid)
	b = binenc.AppendString(b, m.ImageName)
	b = append(b, m.ImageDigest[:]...)
	b = m.Flavor.AppendWire(b)
	b = binenc.AppendString(b, m.Workload)
	b = binenc.AppendUint64(b, uint64(m.Pin))
	return b
}

// DecodeWire strictly decodes the message from its binary encoding.
func (m *LaunchSpec) DecodeWire(data []byte) error {
	rd := binenc.NewReader(data)
	rd.Header(wire.TagLaunchSpec)
	*m = LaunchSpec{}
	m.Vid = rd.String()
	m.ImageName = rd.String()
	rd.Fixed(m.ImageDigest[:])
	m.Flavor.ReadWire(&rd)
	m.Workload = rd.String()
	m.Pin = int(int64(rd.Uint64()))
	return wire.Finish(&rd, "LaunchSpec")
}

// AppendWire appends the message's binary encoding to b.
func (m VMInfo) AppendWire(b []byte) []byte {
	b = binenc.AppendHeader(b, wire.TagVMInfo)
	b = binenc.AppendString(b, m.Vid)
	b = binenc.AppendString(b, m.Workload)
	b = binenc.AppendUint64(b, uint64(m.Runtime))
	b = binenc.AppendBool(b, m.Done)
	b = binenc.AppendUint64(b, uint64(m.DoneAt))
	b = binenc.AppendString(b, m.State)
	return b
}

// DecodeWire strictly decodes the message from its binary encoding.
func (m *VMInfo) DecodeWire(data []byte) error {
	rd := binenc.NewReader(data)
	rd.Header(wire.TagVMInfo)
	*m = VMInfo{}
	m.Vid = rd.String()
	m.Workload = rd.String()
	m.Runtime = time.Duration(rd.Uint64())
	m.Done = rd.Bool()
	m.DoneAt = time.Duration(rd.Uint64())
	m.State = rd.String()
	return wire.Finish(&rd, "VMInfo")
}
