// Binary wire codec for the property types nested inside the protocol
// messages. It is a strict bijection — every field framed independently,
// every decode canonical — so the wire fuzzer can assert decode∘encode ==
// identity, and the quotes and signed bodies hash these same bytes.
package properties

import (
	"sort"
	"time"

	"cloudmonatt/internal/binenc"
)

// AppendWire appends the request's binary wire encoding to b.
func (r Request) AppendWire(b []byte) []byte {
	b = binenc.AppendUint64(b, uint64(r.Window))
	b = binenc.AppendUint32(b, uint32(len(r.Kinds)))
	for _, k := range r.Kinds {
		b = binenc.AppendString(b, string(k))
	}
	return b
}

// ReadWire decodes one request from the cursor.
func (r *Request) ReadWire(rd *binenc.Reader) {
	*r = Request{}
	r.Window = time.Duration(rd.Uint64())
	n := rd.Count(4)
	for i := 0; i < n && rd.Err() == nil; i++ {
		r.Kinds = append(r.Kinds, MeasurementKind(rd.String()))
	}
}

// AppendWire appends the measurement's binary wire encoding to b. The
// parallel LogNames/LogSums and QuotePCR/QuoteVal slices are framed with
// independent counts, so nothing is padded or dropped and the decode below
// inverts it exactly.
func (m Measurement) AppendWire(b []byte) []byte {
	b = binenc.AppendString(b, string(m.Kind))
	b = append(b, m.Digest[:]...)
	b = binenc.AppendUint32(b, uint32(len(m.LogNames)))
	for _, n := range m.LogNames {
		b = binenc.AppendString(b, n)
	}
	b = binenc.AppendUint32(b, uint32(len(m.LogSums)))
	for _, s := range m.LogSums {
		b = append(b, s[:]...)
	}
	b = binenc.AppendBytes(b, m.QuoteSig)
	b = binenc.AppendUint32(b, uint32(len(m.QuotePCR)))
	for _, p := range m.QuotePCR {
		b = binenc.AppendUint32(b, p)
	}
	b = binenc.AppendUint32(b, uint32(len(m.QuoteVal)))
	for _, v := range m.QuoteVal {
		b = append(b, v[:]...)
	}
	b = binenc.AppendUint32(b, uint32(len(m.Tasks)))
	for _, t := range m.Tasks {
		b = binenc.AppendString(b, t)
	}
	b = binenc.AppendUint32(b, uint32(len(m.Counters)))
	for _, c := range m.Counters {
		b = binenc.AppendUint64(b, c)
	}
	b = binenc.AppendUint64(b, uint64(m.CPUTime))
	b = binenc.AppendUint64(b, uint64(m.WallTime))
	b = binenc.AppendBytes(b, m.Report)
	b = binenc.AppendBytes(b, m.VKey)
	b = binenc.AppendBytes(b, m.Endorse)
	return b
}

// ReadWire decodes one measurement from the cursor.
func (m *Measurement) ReadWire(rd *binenc.Reader) {
	*m = Measurement{}
	m.Kind = MeasurementKind(rd.String())
	rd.Fixed(m.Digest[:])
	n := rd.Count(4)
	for i := 0; i < n && rd.Err() == nil; i++ {
		m.LogNames = append(m.LogNames, rd.String())
	}
	n = rd.Count(32)
	for i := 0; i < n && rd.Err() == nil; i++ {
		var s [32]byte
		rd.Fixed(s[:])
		m.LogSums = append(m.LogSums, s)
	}
	m.QuoteSig = rd.Bytes()
	n = rd.Count(4)
	for i := 0; i < n && rd.Err() == nil; i++ {
		m.QuotePCR = append(m.QuotePCR, rd.Uint32())
	}
	n = rd.Count(32)
	for i := 0; i < n && rd.Err() == nil; i++ {
		var v [32]byte
		rd.Fixed(v[:])
		m.QuoteVal = append(m.QuoteVal, v)
	}
	n = rd.Count(4)
	for i := 0; i < n && rd.Err() == nil; i++ {
		m.Tasks = append(m.Tasks, rd.String())
	}
	n = rd.Count(8)
	for i := 0; i < n && rd.Err() == nil; i++ {
		m.Counters = append(m.Counters, rd.Uint64())
	}
	m.CPUTime = time.Duration(rd.Uint64())
	m.WallTime = time.Duration(rd.Uint64())
	m.Report = rd.Bytes()
	m.VKey = rd.Bytes()
	m.Endorse = rd.Bytes()
}

// AppendWireAll appends a measurement list.
func AppendWireAll(b []byte, ms []Measurement) []byte {
	b = binenc.AppendUint32(b, uint32(len(ms)))
	for _, m := range ms {
		b = m.AppendWire(b)
	}
	return b
}

// ReadWireAll decodes a measurement list.
func ReadWireAll(rd *binenc.Reader) []Measurement {
	n := rd.Count(40) // a measurement is ≥ 40 bytes even when empty
	var ms []Measurement
	for i := 0; i < n && rd.Err() == nil; i++ {
		var m Measurement
		m.ReadWire(rd)
		ms = append(ms, m)
	}
	return ms
}

// AppendEncode appends the verdict's signed rendering — the R of the Q1/Q2
// quotes and the signed report bodies — to b: its wire encoding without
// Details. Signing and verifying a report each render it once, into a
// buffer on the caller's stack.
func (v Verdict) AppendEncode(b []byte) []byte {
	b = binenc.AppendString(b, string(v.Property))
	b = binenc.AppendBool(b, v.Healthy)
	b = binenc.AppendString(b, string(v.Class))
	b = binenc.AppendString(b, v.Reason)
	b = binenc.AppendString(b, v.Backend)
	return binenc.AppendBool(b, v.Unattestable)
}

// AppendWire appends the verdict's binary wire encoding to b: its signed
// rendering, then Details. Details are advisory and excluded from the
// signed quotes, as Class and Reason carry the authoritative finding; they
// still ride the wire, with keys sorted so the encoding is deterministic.
func (v Verdict) AppendWire(b []byte) []byte {
	b = v.AppendEncode(b)
	keys := make([]string, 0, len(v.Details))
	for k := range v.Details {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = binenc.AppendUint32(b, uint32(len(keys)))
	for _, k := range keys {
		b = binenc.AppendString(b, k)
		b = binenc.AppendString(b, v.Details[k])
	}
	return b
}

// ReadWire decodes one verdict from the cursor. Detail keys must arrive
// strictly ascending — the canonical order AppendWire emits — so that a
// successful decode re-encodes to the same bytes.
func (v *Verdict) ReadWire(rd *binenc.Reader) {
	*v = Verdict{}
	v.Property = Property(rd.String())
	v.Healthy = rd.Bool()
	v.Class = FailureClass(rd.String())
	v.Reason = rd.String()
	v.Backend = rd.String()
	v.Unattestable = rd.Bool()
	n := rd.Count(8)
	var prev string
	for i := 0; i < n && rd.Err() == nil; i++ {
		k := rd.String()
		val := rd.String()
		if i > 0 && k <= prev {
			rd.Fail(binenc.ErrNonCanonical)
			return
		}
		prev = k
		if v.Details == nil {
			v.Details = make(map[string]string, n)
		}
		v.Details[k] = val
	}
}
