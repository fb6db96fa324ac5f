package secchan

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"cloudmonatt/internal/binenc"
	"cloudmonatt/internal/cryptoutil"
)

// Regression tests for three handshake/record-layer bugs: fixed-width
// handshake fields accepted at the wrong length, pre-authentication frame
// reads sized by an attacker-chosen header, and silent sequence-counter
// wrap in the record layer.

// TestDecodeRejectsWrongLengthFixedFields: a nonce or flags field of any
// width other than the protocol constant must fail decoding, never be
// zero-padded or truncated into a valid-looking message, so two distinct
// wire encodings can never claim the same transcript.
func TestDecodeRejectsWrongLengthFixedFields(t *testing.T) {
	eph := bytes.Repeat([]byte{0x42}, 32)
	key := bytes.Repeat([]byte{0x07}, 32)
	sig := bytes.Repeat([]byte{0x9c}, 64)
	goodNonce := bytes.Repeat([]byte{0xaa}, cryptoutil.NonceSize)
	flags := []byte{0, 0, 0, flagWantTicket}
	// The hellos' field layout with the nonce and flags as raw bytes of
	// whatever width the caller passes.
	encC := func(nonce, flags []byte) []byte {
		b := binenc.AppendString(nil, "engine")
		b = binenc.AppendBytes(b, eph)
		return append(append(b, nonce...), flags...)
	}
	encS := func(nonce []byte) []byte {
		b := binenc.AppendString(nil, "engine")
		b = binenc.AppendBytes(b, eph)
		b = append(b, nonce...)
		b = binenc.AppendBytes(b, key)
		return binenc.AppendBytes(b, sig)
	}

	for _, n := range []int{0, 1, cryptoutil.NonceSize - 1, cryptoutil.NonceSize + 1, 64} {
		bad := bytes.Repeat([]byte{0xaa}, n)
		if err := new(helloC).decodeWire(encC(bad, flags)); err == nil {
			t.Errorf("helloC accepted a %d-byte nonce field", n)
		}
		if err := new(helloS).decodeWire(encS(bad)); err == nil {
			t.Errorf("helloS accepted a %d-byte nonce field", n)
		}
	}
	for _, n := range []int{0, 3, 5, 8} {
		bad := bytes.Repeat([]byte{1}, n)
		if err := new(helloC).decodeWire(encC(goodNonce, bad)); err == nil {
			t.Errorf("helloC accepted a %d-byte flags field", n)
		}
	}
	// The well-formed encodings still decode.
	if err := new(helloC).decodeWire(encC(goodNonce, flags)); err != nil {
		t.Fatalf("well-formed helloC rejected: %v", err)
	}
	if err := new(helloS).decodeWire(encS(goodNonce)); err != nil {
		t.Fatalf("well-formed helloS rejected: %v", err)
	}
}

// TestDecodeRefusesPrefixedHellos: the handshake's encoding before it
// spoke binenc gave the nonce and the flags length prefixes of their own.
// A hello in that encoding is refused, not misread, so a peer built then
// fails at its first frame.
func TestDecodeRefusesPrefixedHellos(t *testing.T) {
	prefixed := func(fields ...[]byte) []byte {
		var b []byte
		for _, f := range fields {
			b = binenc.AppendBytes(b, f)
		}
		return b
	}
	name := []byte("engine")
	eph := bytes.Repeat([]byte{0x42}, 32)
	key := bytes.Repeat([]byte{0x07}, 32)
	sig := bytes.Repeat([]byte{0x9c}, 64)
	nonce := bytes.Repeat([]byte{0xaa}, cryptoutil.NonceSize)
	rows := []struct {
		name string
		into interface{ decodeWire([]byte) error }
		old  []byte
	}{
		{"hello_c", &helloC{}, prefixed(name, eph, nonce, []byte{0, 0, 0, flagWantTicket})},
		{"hello_s", &helloS{}, prefixed(name, eph, nonce, key, sig)},
	}
	for _, row := range rows {
		if err := row.into.decodeWire(row.old); err == nil {
			t.Errorf("%s in the length-prefixed encoding decoded: %+v", row.name, row.into)
		}
	}
}

// TestHandshakeFrameCap: before the peer authenticates, the frame length
// header must not size an allocation past maxHandshakeFrame. The old code
// honored any header up to maxFrame (4 MiB) pre-auth, handing anonymous
// dialers a cheap memory amplifier.
func TestHandshakeFrameCap(t *testing.T) {
	var hdr [4]byte
	for _, n := range []uint32{maxHandshakeFrame + 1, 1 << 20, maxFrame} {
		binary.BigEndian.PutUint32(hdr[:], n)
		_, err := readFrame(bytes.NewReader(hdr[:]), maxHandshakeFrame)
		if err == nil || !strings.Contains(err.Error(), "oversized") {
			t.Errorf("readFrame accepted a %d-byte pre-auth header: %v", n, err)
		}
	}
	// Exactly at the cap still works (no off-by-one lockout).
	payload := bytes.Repeat([]byte{0x55}, maxHandshakeFrame)
	var buf bytes.Buffer
	if err := writeFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	got, err := readFrame(&buf, maxHandshakeFrame)
	if err != nil {
		t.Fatalf("cap-sized frame rejected: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("cap-sized frame corrupted")
	}
}

// TestSequenceExhaustionFailsClosed drives a channel to the end of its
// nonce space: the record before the sentinel flows, the next send fails
// with ErrSequenceExhausted, and the failure is sticky (the conn is
// poisoned; no later call can slip a nonce-reusing record out).
func TestSequenceExhaustionFailsClosed(t *testing.T) {
	c, s, cRaw, _ := rawPair(t)
	c.sendSeq = seqMax - 1
	s.recvSeq = seqMax - 1

	// The last usable sequence number still round-trips.
	done := make(chan error, 1)
	go func() { done <- c.WriteMsg([]byte("last record")) }()
	msg, err := s.ReadMsg()
	if err != nil {
		t.Fatalf("read at seqMax-1: %v", err)
	}
	if string(msg) != "last record" {
		t.Fatalf("read %q", msg)
	}
	if err := <-done; err != nil {
		t.Fatalf("write at seqMax-1: %v", err)
	}

	// The next send would reuse nonce space: fail closed, and stay failed.
	for i := 0; i < 2; i++ {
		if err := c.WriteMsg([]byte("one too many")); !errors.Is(err, ErrSequenceExhausted) {
			t.Fatalf("write %d past exhaustion: %v (want ErrSequenceExhausted)", i, err)
		}
	}

	// Receive side: a frame arriving at the sentinel is rejected before
	// decryption and poisons the reader too.
	go func() {
		writeFrame(cRaw, bytes.Repeat([]byte{0xcc}, 64))
	}()
	if _, err := s.ReadMsg(); !errors.Is(err, ErrSequenceExhausted) {
		t.Fatalf("read at sentinel: %v (want ErrSequenceExhausted)", err)
	}
	if _, err := s.ReadMsg(); !errors.Is(err, ErrSequenceExhausted) {
		t.Fatalf("poisoned read: %v (want sticky ErrSequenceExhausted)", err)
	}
}
