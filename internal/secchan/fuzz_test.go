package secchan

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cloudmonatt/internal/binenc"
	"cloudmonatt/internal/cryptoutil"
)

// The handshake and record parsers sit directly on the network: every byte
// they see before key confirmation is attacker-controlled. These fuzz
// targets pin two properties on that surface — no input panics a parser,
// and the length-prefixed field encoding stays injective (a successful
// parse re-encodes to exactly the bytes parsed, so no two distinct
// transcripts collide in the session hash).

func handshakeSeeds() [][]byte {
	var nC, nS cryptoutil.Nonce
	copy(nC[:], "client-nonce-seed-0123456789abcd")
	copy(nS[:], "server-nonce-seed-0123456789abcd")
	var binder, confirm [32]byte
	copy(binder[:], "binder-seed-0123456789abcdefghij")
	copy(confirm[:], "confirm-seed-0123456789abcdefghi")
	eph := bytes.Repeat([]byte{0x42}, 32)
	key := bytes.Repeat([]byte{0x07}, 32)
	sig := bytes.Repeat([]byte{0x9c}, 64)
	blob := bytes.Repeat([]byte{0x5a}, 114)
	ticket := &Ticket{ID: nC, Blob: blob, Expiry: time.Unix(0, 1<<60)}
	return [][]byte{
		helloC{Name: "customer-1", Eph: eph, Nonce: nC, Flags: flagWantTicket}.appendWire(nil),
		helloS{Name: "controller", Eph: eph, Nonce: nS, Key: key, Sig: sig}.appendWire(nil),
		finishC{Key: key, Sig: sig}.appendWire(nil),
		appendTicket(nil, ticket),
		appendTicket(nil, nil),
		resumeC{ID: nC, Blob: blob, Nonce: nS, Binder: binder}.appendWire(nil),
		resumeS{Accept: true, Nonce: nS, Confirm: confirm, Ticket: ticket}.appendWire(nil),
		resumeS{}.appendWire(nil),
		{0, 0, 0, 200, 'x'}, // field length past end of buffer
		{},
	}
}

// writeFrame sends one length-delimited frame as a single Write: the
// framing readFrame parses, for building its inputs.
func writeFrame(w io.Writer, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("secchan: frame of %d bytes exceeds limit", len(payload))
	}
	buf := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(buf[:4], uint32(len(payload)))
	copy(buf[4:], payload)
	_, err := w.Write(buf)
	return err
}

func frameSeeds() [][]byte {
	var ok bytes.Buffer
	if err := writeFrame(&ok, []byte("attest-record")); err != nil {
		panic(err)
	}
	return [][]byte{
		ok.Bytes(),
		append(ok.Bytes(), 0xee), // trailing bytes after a whole frame
		{0, 0, 0, 9, 'x'},        // header promises more than arrives
		{0xff, 0xff, 0xff, 0xff}, // length far beyond maxFrame
		{0, 0, 0, 0},             // empty payload
		{0, 64},                  // truncated header
	}
}

// FuzzUnpackFields holds the field layer every handshake decoder is built
// from — length-prefixed fields read with binenc.Reader.BytesView, then
// Done — to pack∘unpack identity: splitting a body into n fields that
// consume it whole re-appends to exactly that body.
func FuzzUnpackFields(f *testing.F) {
	for _, s := range handshakeSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for n := 1; n <= 5; n++ {
			rd := binenc.NewReader(data)
			fs := make([][]byte, n)
			for i := range fs {
				fs[i] = rd.BytesView()
			}
			if rd.Done() != nil {
				continue
			}
			var got []byte
			for _, fld := range fs {
				got = binenc.AppendBytes(got, fld)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("pack(unpack(b, %d)) != b: %x vs %x", n, got, data)
			}
		}
	})
}

// handshakeBody is one body a peer sends: its decode, and its append.
type handshakeBody interface {
	decodeWire([]byte) error
	reencode() []byte
}

// ticketFrame is the ticket frame's body as a handshakeBody.
type ticketFrame struct{ t *Ticket }

func (t *ticketFrame) decodeWire(body []byte) (err error) {
	t.t, err = decodeTicket(body)
	return err
}

func (h *helloC) reencode() []byte      { return h.appendWire(nil) }
func (h *helloS) reencode() []byte      { return h.appendWire(nil) }
func (f *finishC) reencode() []byte     { return f.appendWire(nil) }
func (t *ticketFrame) reencode() []byte { return appendTicket(nil, t.t) }
func (m *resumeC) reencode() []byte     { return m.appendWire(nil) }
func (m *resumeS) reencode() []byte     { return m.appendWire(nil) }

// FuzzHandshakeDecode holds the six bodies a peer sends (hello_c, hello_s,
// finish_c, the ticket frame, resume_c and resume_s) to encode∘decode
// identity: a decode that succeeds re-encodes to exactly the parsed bytes,
// since fixed-width fields have no length to get wrong and a decode
// refuses trailing bytes.
func FuzzHandshakeDecode(f *testing.F) {
	for _, s := range handshakeSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, m := range []handshakeBody{&helloC{}, &helloS{}, &finishC{}, &ticketFrame{}, &resumeC{}, &resumeS{}} {
			if m.decodeWire(data) == nil && !bytes.Equal(m.reencode(), data) {
				t.Fatalf("%T decode accepted a non-canonical encoding %x", m, data)
			}
		}
	})
}

func FuzzReadFrame(f *testing.F) {
	for _, s := range frameSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Pre-authentication reads are capped at the handshake frame size:
		// an attacker-chosen length header must never size an allocation
		// beyond it.
		payload, err := readFrame(bytes.NewReader(data), maxHandshakeFrame)
		if err != nil {
			return
		}
		if len(payload) > maxHandshakeFrame {
			t.Fatalf("readFrame accepted %d-byte payload past the handshake cap", len(payload))
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, payload); err != nil {
			t.Fatalf("re-framing accepted payload: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data[:4+len(payload)]) {
			t.Fatal("writeFrame(readFrame(b)) is not the consumed prefix of b")
		}
	})
}

// TestRegenFuzzSeeds rewrites the committed seed corpus under
// testdata/fuzz from the real encoders, so the checked-in seeds never
// drift from the wire format. Run with REGEN_FUZZ_SEEDS=1 after changing
// the handshake or framing encoding.
func TestRegenFuzzSeeds(t *testing.T) {
	if os.Getenv("REGEN_FUZZ_SEEDS") == "" {
		t.Skip("set REGEN_FUZZ_SEEDS=1 to rewrite testdata/fuzz seeds")
	}
	writeSeedCorpus(t, "FuzzUnpackFields", handshakeSeeds())
	writeSeedCorpus(t, "FuzzHandshakeDecode", handshakeSeeds())
	writeSeedCorpus(t, "FuzzReadFrame", frameSeeds())
}

func writeSeedCorpus(t *testing.T, fuzzName string, seeds [][]byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", fuzzName)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, s := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s)
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
