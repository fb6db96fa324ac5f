// Package binenc provides the append/cursor primitives behind the
// program's one binary codec: big-endian fixed-width integers and
// u32-length-prefixed byte fields. Every byte a peer sends is read through
// it, the secure channel's handshake included.
//
// The encoder side is a family of Append functions so callers can reuse
// one buffer across messages (zero allocations at steady state). The
// decoder side is a strict cursor: every read is bounds-checked, boolean
// and presence bytes admit only 0/1, and Done rejects trailing bytes, so a
// successful decode of a whole message implies the input is exactly the
// canonical encoding of the decoded value (decode∘encode == identity).
// That bijection is what the codec fuzzers pin.
//
// A decoded string may share memory with an earlier decode of the same
// bytes: String keeps a process-wide table of at most 1024 strings of at
// most 64 bytes, whatever a peer sends, because the same VM ids, property,
// method and measurement names recur in every message. A hostile peer can
// only evict entries, which costs allocations. Strings are immutable, so
// sharing one is invisible to the caller, and no secret travels as a
// String field (keys, nonces, quotes and signatures are Fixed or Bytes).
package binenc

import (
	"errors"
	"sync"
)

// Magic is the first byte of every message. It was chosen as a byte no
// stream of the codec this one replaced could start with (below 0x80 or
// at 0xF8..0xFF there), so what an old peer sends is refused at byte one.
const Magic = 0xC1

// Version is the current binary wire-format version.
const Version = 1

// ErrHeader reports a message whose magic/version/tag header does not
// match what the decoder expects.
var ErrHeader = errors.New("binenc: bad message header")

// ErrTruncated reports a read past the end of the input.
var ErrTruncated = errors.New("binenc: truncated input")

// ErrTrailing reports unconsumed bytes after a complete message.
var ErrTrailing = errors.New("binenc: trailing bytes after message")

// ErrNonCanonical reports an input byte outside its canonical range (a
// boolean or presence byte that is neither 0 nor 1).
var ErrNonCanonical = errors.New("binenc: non-canonical encoding")

// AppendUint8 appends one raw byte.
func AppendUint8(b []byte, v byte) []byte { return append(b, v) }

// AppendHeader appends the three-byte message header: magic, version, tag.
func AppendHeader(b []byte, tag byte) []byte {
	return append(b, Magic, Version, tag)
}

// AppendBool appends a canonical boolean byte (0 or 1).
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendUint32 appends v big-endian.
func AppendUint32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// AppendUint64 appends v big-endian.
func AppendUint64(b []byte, v uint64) []byte {
	return append(b,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// AppendBytes appends a u32 length prefix followed by p.
func AppendBytes(b []byte, p []byte) []byte {
	b = AppendUint32(b, uint32(len(p)))
	return append(b, p...)
}

// AppendString appends a u32 length prefix followed by the string bytes.
func AppendString(b []byte, s string) []byte {
	b = AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// Reader is a strict decoding cursor over one encoded message. Methods
// record the first error and become no-ops afterwards, so a decoder can
// read a whole message unconditionally and check Err (or Done) once.
type Reader struct {
	b   []byte
	err error
}

// NewReader starts a cursor over b. The Reader borrows b; it never copies
// or mutates it.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Done returns nil only when the whole input was consumed without error.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return ErrTrailing
	}
	return nil
}

// Remaining returns the number of unconsumed bytes.
func (r *Reader) Remaining() int { return len(r.b) }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.err = ErrTruncated
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// Uint8 reads one raw byte.
func (r *Reader) Uint8() byte {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

// Bool reads a canonical boolean byte, rejecting values other than 0/1.
func (r *Reader) Bool() bool {
	p := r.take(1)
	if p == nil {
		return false
	}
	switch p[0] {
	case 0:
		return false
	case 1:
		return true
	}
	r.err = ErrNonCanonical
	return false
}

// Uint32 reads a big-endian u32.
func (r *Reader) Uint32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return uint32(p[0])<<24 | uint32(p[1])<<16 | uint32(p[2])<<8 | uint32(p[3])
}

// Uint64 reads a big-endian u64.
func (r *Reader) Uint64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return uint64(p[0])<<56 | uint64(p[1])<<48 | uint64(p[2])<<40 | uint64(p[3])<<32 |
		uint64(p[4])<<24 | uint64(p[5])<<16 | uint64(p[6])<<8 | uint64(p[7])
}

// BytesView reads a length-prefixed field and returns a slice borrowing
// the input buffer — valid only while the input is. An empty field decodes
// to nil (the canonical form: AppendBytes encodes nil and empty alike).
func (r *Reader) BytesView() []byte {
	n := r.Uint32()
	if r.err != nil {
		return nil
	}
	if n == 0 {
		return nil
	}
	return r.take(int(n))
}

// Bytes reads a length-prefixed field into freshly owned memory.
func (r *Reader) Bytes() []byte {
	v := r.BytesView()
	if v == nil {
		return nil
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out
}

// String reads a length-prefixed field as a string. A field of at most
// internMaxLen bytes that matches the string table's entry for its slot
// returns that entry and allocates nothing. A value that names one request
// (an idempotency key, a span ID) is better read as string(BytesView()),
// which leaves the table to values that recur.
func (r *Reader) String() string {
	v := r.BytesView()
	if v == nil {
		return ""
	}
	if len(v) > internMaxLen {
		return string(v)
	}
	slot := &strtab[internSlot(v)]
	slot.mu.Lock()
	s := slot.s
	if s != string(v) {
		s = string(v)
		slot.s = s
	}
	slot.mu.Unlock()
	return s
}

// The string table behind String: direct-mapped, one string per slot, the
// newest decode of a slot replacing the one before. Each slot has its own
// lock, beside its string: one lock for the whole table made attest-fleet
// 1.5-2 % slower, where the per-slot locks read flat.
const (
	internSlots  = 1024
	internMaxLen = 64
)

var strtab [internSlots]struct {
	mu sync.Mutex
	s  string
}

// internSlot hashes v with FNV-1a: a fixed hash, so which decodes hit the
// table repeats from run to run.
func internSlot(v []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range v {
		h = (h ^ uint32(c)) * 16777619
	}
	return h % internSlots
}

// Fixed reads exactly len(dst) raw bytes (no length prefix) into dst.
// Fixed-width fields (hashes, nonces) skip the prefix: the width is a
// protocol constant, so the encoding stays injective without it.
func (r *Reader) Fixed(dst []byte) {
	p := r.take(len(dst))
	if p != nil {
		copy(dst, p)
	}
}

// Header consumes and checks the three-byte message header against tag.
func (r *Reader) Header(tag byte) {
	p := r.take(3)
	if p == nil {
		return
	}
	if p[0] != Magic || p[1] != Version || p[2] != tag {
		r.err = ErrHeader
	}
}

// Fail records err as the cursor's error if none is set yet. Message
// decoders use it for semantic canonicality violations (e.g. unsorted map
// keys) that the byte-level primitives cannot see.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Count reads a u32 element count and bounds it against the remaining
// input (each element needs at least min bytes), so a hostile count can
// never drive a huge allocation from a short message.
func (r *Reader) Count(min int) int {
	n := r.Uint32()
	if r.err != nil {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if int64(n)*int64(min) > int64(len(r.b)) {
		r.err = ErrTruncated
		return 0
	}
	return int(n)
}
