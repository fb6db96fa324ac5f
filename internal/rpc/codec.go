// Codec dispatch for the rpc layer: one codec, chosen by the Go type
// alone. Every message that crosses a secure channel — the internal/wire
// protocol messages, the management-plane messages of the controller, the
// cloud servers and the attestation servers, and this package's envelopes
// — implements the WireAppender/WireDecoder pair and travels as
// hand-written binary led by binenc.Magic; a type without the pair does
// not travel at all. The tag table is DESIGN.md section 14.
//
// A server serves through one dispatch table: Methods maps each method
// name to its entry, and Method builds an entry from a typed function, so
// no server decodes a body, encodes a reply or refuses an unknown method
// by hand.
package rpc

import (
	"encoding/binary"
	"fmt"
	"sync"

	"cloudmonatt/internal/binenc"
)

// WireAppender is implemented by messages with a hand-rolled binary
// encoding. AppendWire appends the complete framed message to b and
// returns the extended buffer, allocating only when b lacks capacity.
type WireAppender interface {
	AppendWire(b []byte) []byte
}

// WireDecoder is implemented by messages that can strictly decode their
// binary encoding (accepting exactly the bytes AppendWire produces).
type WireDecoder interface {
	DecodeWire(data []byte) error
}

// Methods is a server's dispatch table: each entry receives the
// authenticated peer and the request body and returns the encoded reply
// (nil is the bodiless ack). Method builds an entry from a typed function.
type Methods map[string]func(peer Peer, body []byte) ([]byte, error)

// Handler dispatches each request to its entry, and refuses a method the
// table lacks, naming server.
func (m Methods) Handler(server string) Handler {
	return func(peer Peer, method string, body []byte) ([]byte, error) {
		fn, ok := m[method]
		if !ok {
			return nil, fmt.Errorf("%s: unknown method %q", server, method)
		}
		return fn(peer, body)
	}
}

// Method is the entry that strictly decodes the body into a new Req, hands
// it to fn, and returns fn's error as it is or encodes fn's reply (nil is
// the bodiless ack).
func Method[Req any, P interface {
	*Req
	WireDecoder
}](fn func(Peer, P) (any, error)) func(Peer, []byte) ([]byte, error) {
	return func(peer Peer, body []byte) ([]byte, error) {
		req := P(new(Req))
		if err := req.DecodeWire(body); err != nil {
			return nil, err
		}
		reply, err := fn(peer, req)
		if err != nil {
			return nil, err
		}
		return Encode(reply)
	}
}

// Envelope tags sit in the internal/wire tag space (wire/codec.go
// declares every other tag and reserves these two).
const (
	tagRequestEnvelope  = 9
	tagResponseEnvelope = 10
)

// encScratch pools encode buffers so steady-state Encode does one exact-
// size allocation (the returned slice, which callers may retain — the
// idempotency cache does). A new buffer starts past the size of every
// response of an attestation, so a pool miss (after a GC, or at random
// under the race detector) costs one buffer and not a series of growing
// ones.
var encScratch = sync.Pool{New: func() any {
	b := make([]byte, 0, 2048)
	return &b
}}

func encodeBinary(wa WireAppender) []byte {
	bp := encScratch.Get().(*[]byte)
	b := wa.AppendWire((*bp)[:0])
	out := make([]byte, len(b))
	copy(out, b)
	*bp = b
	encScratch.Put(bp)
	return out
}

// AppendWire implements the request envelope's binary encoding.
func (e requestEnvelope) AppendWire(b []byte) []byte {
	return binenc.AppendBytes(e.appendHead(b), e.Body)
}

// appendHead appends every field of the envelope but Body.
func (e requestEnvelope) appendHead(b []byte) []byte {
	b = binenc.AppendHeader(b, tagRequestEnvelope)
	b = binenc.AppendString(b, e.Method)
	b = binenc.AppendString(b, e.IdemKey)
	b = binenc.AppendString(b, e.Trace)
	return binenc.AppendString(b, e.Span)
}

// appendRequest appends the request envelope e with v as its body, and is
// byte for byte e.AppendWire with Body = Encode(v): v is encoded in place
// behind its backfilled u32 length, so the body is never copied.
func appendRequest(b []byte, e requestEnvelope, v any) ([]byte, error) {
	b = e.appendHead(b)
	at := len(b)
	b = append(b, 0, 0, 0, 0)
	if wa, ok := v.(WireAppender); ok {
		b = wa.AppendWire(b)
	} else {
		body, err := Encode(v) // nil or a []byte: no copy
		if err != nil {
			return nil, err
		}
		b = append(b, body...)
	}
	binary.BigEndian.PutUint32(b[at:], uint32(len(b)-at-4))
	return b, nil
}

// DecodeWire strictly decodes the request envelope. Body borrows data —
// valid only while the record buffer is, which holds for the dispatch
// loop's decode→handle→respond sequence.
func (e *requestEnvelope) DecodeWire(data []byte) error {
	rd := binenc.NewReader(data)
	rd.Header(tagRequestEnvelope)
	*e = requestEnvelope{}
	e.Method = rd.String()
	// The idempotency key, trace and span name this one request, so they
	// skip String's table of recurring values: there they would only evict
	// names that recur, and a seeded run would allocate less whenever an
	// earlier run in the same process had left the same IDs behind.
	e.IdemKey = string(rd.BytesView())
	e.Trace = string(rd.BytesView())
	e.Span = string(rd.BytesView())
	e.Body = rd.BytesView()
	if err := rd.Done(); err != nil {
		return fmt.Errorf("rpc: decoding request envelope: %w", err)
	}
	return nil
}

// AppendWire implements the response envelope's binary encoding.
func (e responseEnvelope) AppendWire(b []byte) []byte {
	b = binenc.AppendHeader(b, tagResponseEnvelope)
	b = binenc.AppendString(b, e.Err)
	b = binenc.AppendBytes(b, e.Body)
	return b
}

// DecodeWire strictly decodes the response envelope. Body borrows data
// (see requestEnvelope.DecodeWire).
func (e *responseEnvelope) DecodeWire(data []byte) error {
	rd := binenc.NewReader(data)
	rd.Header(tagResponseEnvelope)
	*e = responseEnvelope{}
	e.Err = rd.String()
	e.Body = rd.BytesView()
	if err := rd.Done(); err != nil {
		return fmt.Errorf("rpc: decoding response envelope: %w", err)
	}
	return nil
}
