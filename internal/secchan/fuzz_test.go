package secchan

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

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
	eph := bytes.Repeat([]byte{0x42}, 32)
	key := bytes.Repeat([]byte{0x07}, 32)
	sig := bytes.Repeat([]byte{0x9c}, 64)
	return [][]byte{
		encodeHelloC(helloC{Name: "customer-1", Eph: eph, Nonce: nC}),
		encodeHelloS(helloS{Name: "controller", Eph: eph, Nonce: nS, Key: key, Sig: sig}),
		encodeFinishC(finishC{Key: key, Sig: sig}),
		packFields(nil),
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

func FuzzUnpackFields(f *testing.F) {
	for _, s := range handshakeSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for n := 1; n <= 5; n++ {
			fs, err := unpackFields(data, n)
			if err != nil {
				continue
			}
			if len(fs) != n {
				t.Fatalf("unpackFields(_, %d) returned %d fields", n, len(fs))
			}
			if got := packFields(fs...); !bytes.Equal(got, data) {
				t.Fatalf("pack(unpack(b, %d)) != b: %x vs %x", n, got, data)
			}
		}
	})
}

func FuzzHandshakeDecode(f *testing.F) {
	for _, s := range handshakeSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// A successful decode must re-encode to exactly the parsed bytes:
		// fixed-width fields (nonces, flags) are rejected at any other
		// length, never zero-padded or truncated, so encode∘decode is the
		// identity on every accepted input.
		if h, err := decodeHelloC(data); err == nil {
			if !bytes.Equal(encodeHelloC(h), data) {
				t.Fatal("helloC decode accepted a non-canonical encoding")
			}
		}
		if h, err := decodeHelloS(data); err == nil {
			if !bytes.Equal(encodeHelloS(h), data) {
				t.Fatal("helloS decode accepted a non-canonical encoding")
			}
		}
		if fin, err := decodeFinishC(data); err == nil {
			if !bytes.Equal(encodeFinishC(fin), data) {
				t.Fatal("finishC decode accepted a non-canonical encoding")
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
