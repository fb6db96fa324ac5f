// Management-plane messages this package owns, in the codec of codec.go:
// the one message that addresses a VM by id, the vm_status reply, and the
// signed batch a periodic drain returns to the customer.
package wire

import (
	"time"

	"cloudmonatt/internal/binenc"
	"cloudmonatt/internal/properties"
)

// VidRequest addresses one VM by id: the request of terminate_vm and
// vm_status on the nova api, of a cloud server's Management Client methods
// and of the attestation server's forget-vm.
type VidRequest struct {
	Vid string
}

// AppendWire appends the message's binary encoding to b.
func (m VidRequest) AppendWire(b []byte) []byte {
	b = binenc.AppendHeader(b, TagVidRequest)
	b = binenc.AppendString(b, m.Vid)
	return b
}

// DecodeWire strictly decodes the message from its binary encoding.
func (m *VidRequest) DecodeWire(data []byte) error {
	rd := binenc.NewReader(data)
	rd.Header(TagVidRequest)
	*m = VidRequest{}
	m.Vid = rd.String()
	return Finish(&rd, "VidRequest")
}

// AppendWire appends the message's binary encoding to b.
func (m VMStatus) AppendWire(b []byte) []byte {
	b = binenc.AppendHeader(b, TagVMStatus)
	b = binenc.AppendString(b, m.Vid)
	b = binenc.AppendString(b, m.Owner)
	b = binenc.AppendString(b, m.Server)
	b = binenc.AppendString(b, m.State)
	b = binenc.AppendBool(b, m.Deleted)
	b = binenc.AppendBool(b, m.Finalized)
	b = binenc.AppendUint32(b, uint32(len(m.Conditions)))
	for _, c := range m.Conditions {
		b = binenc.AppendString(b, c.Type)
		b = binenc.AppendString(b, c.Status)
		b = binenc.AppendString(b, c.Reason)
		b = binenc.AppendString(b, c.Message)
		b = binenc.AppendUint64(b, uint64(c.At))
	}
	return b
}

// DecodeWire strictly decodes the message from its binary encoding.
func (m *VMStatus) DecodeWire(data []byte) error {
	rd := binenc.NewReader(data)
	rd.Header(TagVMStatus)
	*m = VMStatus{}
	m.Vid = rd.String()
	m.Owner = rd.String()
	m.Server = rd.String()
	m.State = rd.String()
	m.Deleted = rd.Bool()
	m.Finalized = rd.Bool()
	n := rd.Count(24) // four length prefixes and a u64
	for i := 0; i < n && rd.Err() == nil; i++ {
		var c Condition
		c.Type = rd.String()
		c.Status = rd.String()
		c.Reason = rd.String()
		c.Message = rd.String()
		c.At = time.Duration(rd.Uint64())
		m.Conditions = append(m.Conditions, c)
	}
	return Finish(&rd, "VMStatus")
}

// verdictMin is the fewest bytes a verdict's wire encoding takes: four
// length prefixes, two booleans and the details count.
const verdictMin = 22

// AppendWire appends the message's binary encoding to b.
func (m CustomerBatch) AppendWire(b []byte) []byte {
	b = binenc.AppendHeader(b, TagCustomerBatch)
	b = binenc.AppendString(b, m.Vid)
	b = binenc.AppendString(b, string(m.Prop))
	b = append(b, m.N1[:]...)
	b = binenc.AppendUint32(b, uint32(len(m.Verdicts)))
	for i := range m.Verdicts {
		b = m.Verdicts[i].AppendWire(b)
	}
	b = append(b, m.Q1[:]...)
	b = binenc.AppendBytes(b, m.Sig)
	return b
}

// DecodeWire strictly decodes the message from its binary encoding.
func (m *CustomerBatch) DecodeWire(data []byte) error {
	rd := binenc.NewReader(data)
	rd.Header(TagCustomerBatch)
	*m = CustomerBatch{}
	m.Vid = rd.String()
	m.Prop = properties.Property(rd.String())
	rd.Fixed(m.N1[:])
	if n := rd.Count(verdictMin); n > 0 {
		m.Verdicts = make([]properties.Verdict, n)
		for i := 0; i < n && rd.Err() == nil; i++ {
			m.Verdicts[i].ReadWire(&rd)
		}
	}
	rd.Fixed(m.Q1[:])
	m.Sig = rd.Bytes()
	return Finish(&rd, "CustomerBatch")
}

// AppendFramed appends m's complete encoding behind a u32 length, filled
// in once the encoding's end is known, so a list element is decoded by the
// element's own strict decoder (over Reader.BytesView).
func AppendFramed(b []byte, m interface{ AppendWire([]byte) []byte }) []byte {
	at := len(b)
	b = m.AppendWire(append(b, 0, 0, 0, 0))
	n := len(b) - at - 4
	b[at], b[at+1], b[at+2], b[at+3] = byte(n>>24), byte(n>>16), byte(n>>8), byte(n)
	return b
}
