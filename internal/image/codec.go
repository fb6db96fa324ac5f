package image

import "cloudmonatt/internal/binenc"

// AppendWire appends the flavor's binary wire encoding to b (nested in
// server.LaunchSpec; no header of its own).
func (f Flavor) AppendWire(b []byte) []byte {
	b = binenc.AppendString(b, f.Name)
	b = binenc.AppendUint32(b, uint32(f.VCPUs))
	b = binenc.AppendUint32(b, uint32(f.MemoryMB))
	b = binenc.AppendUint32(b, uint32(f.DiskGB))
	return b
}

// ReadWire decodes one flavor from the cursor.
func (f *Flavor) ReadWire(rd *binenc.Reader) {
	*f = Flavor{}
	f.Name = rd.String()
	f.VCPUs = int(rd.Uint32())
	f.MemoryMB = int(rd.Uint32())
	f.DiskGB = int(rd.Uint32())
}
