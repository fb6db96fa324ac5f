// Codec dispatch for the rpc layer: one codec per message type, chosen by
// the Go type alone. Messages that implement the WireAppender/WireDecoder
// pair (the internal/wire protocol messages and this package's envelopes)
// travel as hand-rolled binary only; every other (control-plane) type
// travels as gob only. Binary messages start with binenc.Magic (0xC1), a
// byte no gob stream can begin with, so each decoder refuses the other
// format's bytes and an attacker-supplied message reaches exactly one
// parser.
package rpc

import (
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

// Envelope tags continue the internal/wire tag space (1-8 are the
// protocol messages).
const (
	tagRequestEnvelope  = 9
	tagResponseEnvelope = 10
)

// encScratch pools encode buffers so steady-state Encode does one exact-
// size allocation (the returned slice, which callers may retain — the
// idempotency cache does) instead of gob's encoder machinery.
var encScratch = sync.Pool{New: func() any { return new([]byte) }}

func encodeBinary(wa WireAppender) []byte {
	bp := encScratch.Get().(*[]byte)
	b := wa.AppendWire((*bp)[:0])
	out := make([]byte, len(b))
	copy(out, b)
	*bp = b
	encScratch.Put(bp)
	return out
}

// appendWire implements the request envelope's binary encoding.
func (e requestEnvelope) AppendWire(b []byte) []byte {
	b = binenc.AppendHeader(b, tagRequestEnvelope)
	b = binenc.AppendString(b, e.Method)
	b = binenc.AppendString(b, e.IdemKey)
	b = binenc.AppendString(b, e.Trace)
	b = binenc.AppendString(b, e.Span)
	b = binenc.AppendBytes(b, e.Body)
	return b
}

// DecodeWire strictly decodes the request envelope. Body borrows data —
// valid only while the record buffer is, which holds for the dispatch
// loop's decode→handle→respond sequence.
func (e *requestEnvelope) DecodeWire(data []byte) error {
	rd := binenc.NewReader(data)
	rd.Header(tagRequestEnvelope)
	*e = requestEnvelope{}
	e.Method = rd.String()
	e.IdemKey = rd.String()
	e.Trace = rd.String()
	e.Span = rd.String()
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
