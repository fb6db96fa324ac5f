package controller

import (
	"math"
	"time"

	"cloudmonatt/internal/binenc"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/wire"
)

// The nova api's management messages in the codec of
// internal/wire/codec.go. LaunchRequest is the one a customer composes:
// its decoder bounds every list by the bytes that remain, and
// LaunchVMTraced judges the values (property names, share, pin).

// AppendWire appends the message's binary encoding to b. Owner does not
// travel: the controller takes it from the authenticated channel.
func (m LaunchRequest) AppendWire(b []byte) []byte {
	b = binenc.AppendHeader(b, wire.TagLaunchRequest)
	b = binenc.AppendString(b, m.ImageName)
	b = binenc.AppendString(b, m.Flavor)
	b = binenc.AppendString(b, m.Workload)
	b = appendProps(b, m.Props)
	b = appendStrings(b, m.Allowlist)
	b = binenc.AppendUint64(b, math.Float64bits(m.MinShare))
	b = binenc.AppendUint64(b, uint64(m.Pin))
	b = binenc.AppendString(b, m.Server)
	return b
}

// DecodeWire strictly decodes the message from its binary encoding.
func (m *LaunchRequest) DecodeWire(data []byte) error {
	rd := binenc.NewReader(data)
	rd.Header(wire.TagLaunchRequest)
	*m = LaunchRequest{}
	m.ImageName = rd.String()
	m.Flavor = rd.String()
	m.Workload = rd.String()
	m.Props = readProps(&rd)
	m.Allowlist = readStrings(&rd)
	m.MinShare = math.Float64frombits(rd.Uint64())
	m.Pin = int(int64(rd.Uint64()))
	m.Server = rd.String()
	return wire.Finish(&rd, "LaunchRequest")
}

func appendProps(b []byte, ps []properties.Property) []byte {
	b = binenc.AppendUint32(b, uint32(len(ps)))
	for _, p := range ps {
		b = binenc.AppendString(b, string(p))
	}
	return b
}

func readProps(rd *binenc.Reader) []properties.Property {
	var ps []properties.Property
	n := rd.Count(4)
	for i := 0; i < n && rd.Err() == nil; i++ {
		ps = append(ps, properties.Property(rd.String()))
	}
	return ps
}

func appendStrings(b []byte, ss []string) []byte {
	b = binenc.AppendUint32(b, uint32(len(ss)))
	for _, s := range ss {
		b = binenc.AppendString(b, s)
	}
	return b
}

func readStrings(rd *binenc.Reader) []string {
	var ss []string
	n := rd.Count(4)
	for i := 0; i < n && rd.Err() == nil; i++ {
		ss = append(ss, rd.String())
	}
	return ss
}

// AppendWire appends the message's binary encoding to b.
func (m LaunchResult) AppendWire(b []byte) []byte {
	b = binenc.AppendHeader(b, wire.TagLaunchResult)
	b = binenc.AppendString(b, m.Vid)
	b = binenc.AppendString(b, m.Server)
	b = binenc.AppendBool(b, m.OK)
	b = binenc.AppendString(b, m.Reason)
	b = binenc.AppendUint32(b, uint32(len(m.Stages)))
	for _, st := range m.Stages {
		b = binenc.AppendString(b, st.Stage)
		b = binenc.AppendUint64(b, uint64(st.Duration))
	}
	b = m.Verdict.AppendWire(b)
	return b
}

// DecodeWire strictly decodes the message from its binary encoding.
func (m *LaunchResult) DecodeWire(data []byte) error {
	rd := binenc.NewReader(data)
	rd.Header(wire.TagLaunchResult)
	*m = LaunchResult{}
	m.Vid = rd.String()
	m.Server = rd.String()
	m.OK = rd.Bool()
	m.Reason = rd.String()
	n := rd.Count(12) // a length prefix and a u64
	for i := 0; i < n && rd.Err() == nil; i++ {
		var st StageTiming
		st.Stage = rd.String()
		st.Duration = time.Duration(rd.Uint64())
		m.Stages = append(m.Stages, st)
	}
	m.Verdict.ReadWire(&rd)
	return wire.Finish(&rd, "LaunchResult")
}

// VMSummaryList is the list_vms reply.
type VMSummaryList []VMSummary

// AppendWire appends the message's binary encoding to b.
func (l VMSummaryList) AppendWire(b []byte) []byte {
	b = binenc.AppendHeader(b, wire.TagVMSummaryList)
	b = binenc.AppendUint32(b, uint32(len(l)))
	for _, m := range l {
		b = binenc.AppendString(b, m.Vid)
		b = binenc.AppendString(b, m.ImageName)
		b = binenc.AppendString(b, m.Flavor)
		b = binenc.AppendString(b, m.Workload)
		b = appendProps(b, m.Props)
		b = binenc.AppendString(b, m.State)
	}
	return b
}

// DecodeWire strictly decodes the message from its binary encoding.
func (l *VMSummaryList) DecodeWire(data []byte) error {
	rd := binenc.NewReader(data)
	rd.Header(wire.TagVMSummaryList)
	*l = nil
	n := rd.Count(24) // five length prefixes and a count
	for i := 0; i < n && rd.Err() == nil; i++ {
		var m VMSummary
		m.Vid = rd.String()
		m.ImageName = rd.String()
		m.Flavor = rd.String()
		m.Workload = rd.String()
		m.Props = readProps(&rd)
		m.State = rd.String()
		*l = append(*l, m)
	}
	return wire.Finish(&rd, "VMSummaryList")
}

// ResponseEventList is the list_events reply.
type ResponseEventList []ResponseEvent

// AppendWire appends the message's binary encoding to b.
func (l ResponseEventList) AppendWire(b []byte) []byte {
	b = binenc.AppendHeader(b, wire.TagResponseEventList)
	b = binenc.AppendUint32(b, uint32(len(l)))
	for _, e := range l {
		b = binenc.AppendString(b, e.Vid)
		b = binenc.AppendString(b, string(e.Prop))
		b = binenc.AppendString(b, string(e.Response))
		b = binenc.AppendString(b, e.Reason)
		b = binenc.AppendUint64(b, uint64(e.At))
		b = binenc.AppendUint64(b, uint64(e.Duration))
		b = binenc.AppendString(b, e.NewServer)
		b = binenc.AppendBool(b, e.Terminated)
	}
	return b
}

// DecodeWire strictly decodes the message from its binary encoding.
func (l *ResponseEventList) DecodeWire(data []byte) error {
	rd := binenc.NewReader(data)
	rd.Header(wire.TagResponseEventList)
	*l = nil
	n := rd.Count(37) // five length prefixes, two u64 and a boolean
	for i := 0; i < n && rd.Err() == nil; i++ {
		var e ResponseEvent
		e.Vid = rd.String()
		e.Prop = properties.Property(rd.String())
		e.Response = ResponseKind(rd.String())
		e.Reason = rd.String()
		e.At = time.Duration(rd.Uint64())
		e.Duration = time.Duration(rd.Uint64())
		e.NewServer = rd.String()
		e.Terminated = rd.Bool()
		*l = append(*l, e)
	}
	return wire.Finish(&rd, "ResponseEventList")
}
