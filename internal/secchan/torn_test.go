package secchan

import (
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"cloudmonatt/internal/cryptoutil"
)

// rawPair establishes a secure channel over a pipe and returns both the
// Conns and the raw pipe ends, so tests can inject torn frames underneath
// the record layer.
func rawPair(t *testing.T) (c, s *Conn, cRaw, sRaw net.Conn) {
	t.Helper()
	ci, si := cryptoutil.MustIdentity("client"), cryptoutil.MustIdentity("server")
	cRaw, sRaw = net.Pipe()
	type res struct {
		c   *Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		sc, err := Server(sRaw, Config{Identity: si, Verify: registry(ci, si)})
		ch <- res{sc, err}
	}()
	cc, err := Client(cRaw, Config{Identity: ci, Verify: registry(ci, si)})
	if err != nil {
		t.Fatalf("client handshake: %v", err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatalf("server handshake: %v", r.err)
	}
	t.Cleanup(func() {
		cc.Close()
		r.c.Close()
	})
	return cc, r.c, cRaw, sRaw
}

// TestHandshakeDeadlineAgainstStalledPeer: a peer that accepts the
// connection but consumes only part of the hello frame must not block the
// handshake past its deadline (torn handshake).
func TestHandshakeDeadlineAgainstStalledPeer(t *testing.T) {
	cRaw, sRaw := net.Pipe()
	defer sRaw.Close()
	defer cRaw.Close()
	ci := cryptoutil.MustIdentity("client")
	// The "server" consumes two bytes of the client hello, then stalls.
	go io.CopyN(io.Discard, sRaw, 2)
	cRaw.SetDeadline(time.Now().Add(100 * time.Millisecond))
	start := time.Now()
	_, err := Client(cRaw, Config{Identity: ci, Verify: registry(ci)})
	if err == nil {
		t.Fatal("handshake succeeded against a stalled peer")
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("want deadline error, got %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatalf("handshake blocked %v past its deadline", time.Since(start))
	}
}

// TestReadDeadlineMidLengthPrefix: the peer sends half a length prefix and
// stalls; ReadMsg must return a deadline error instead of blocking.
func TestReadDeadlineMidLengthPrefix(t *testing.T) {
	c, _, _, sRaw := rawPair(t)
	go sRaw.Write([]byte{0x00, 0x00}) // 2 of the 4 header bytes
	c.raw.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	_, err := c.ReadMsg()
	if err == nil {
		t.Fatal("ReadMsg returned a record from half a length prefix")
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("want deadline error, got %v", err)
	}
}

// TestReadDeadlineMidCiphertext: a complete header promising 64 bytes
// followed by only 10 must not block the reader past its deadline.
func TestReadDeadlineMidCiphertext(t *testing.T) {
	c, _, _, sRaw := rawPair(t)
	go func() {
		sRaw.Write([]byte{0x00, 0x00, 0x00, 0x40})
		sRaw.Write(make([]byte, 10))
	}()
	c.raw.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	_, err := c.ReadMsg()
	if err == nil {
		t.Fatal("ReadMsg returned a record from a truncated ciphertext")
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("want deadline error, got %v", err)
	}
}

// TestWriteDeadlineWithStalledReader: WriteMsg against a peer that never
// reads must return a deadline error (partial write / torn record on the
// sender side).
func TestWriteDeadlineWithStalledReader(t *testing.T) {
	c, _, _, _ := rawPair(t)
	c.raw.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
	start := time.Now()
	err := c.WriteMsg([]byte("attestation evidence"))
	if err == nil {
		t.Fatal("WriteMsg succeeded with nobody reading a synchronous pipe")
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("want deadline error, got %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatalf("WriteMsg blocked %v past its deadline", time.Since(start))
	}
}

// TestTruncatedRecordOnClose: a record cut off by connection close must
// surface an error, never a partial payload.
func TestTruncatedRecordOnClose(t *testing.T) {
	c, _, _, sRaw := rawPair(t)
	go func() {
		sRaw.Write([]byte{0x00, 0x00, 0x00, 0x20})
		sRaw.Write(make([]byte, 8))
		sRaw.Close()
	}()
	_, err := c.ReadMsg()
	if err == nil {
		t.Fatal("ReadMsg delivered a truncated record")
	}
}

// TestDesyncAfterTornWrite verifies the documented contract: a record
// interrupted by an expired write deadline leaves the channel desynced
// (the sender's AEAD sequence advanced, the receiver's did not), so the
// next record fails authentication — the caller has to discard the
// connection, which is exactly what rpc.Client's poisoning does.
func TestDesyncAfterTornWrite(t *testing.T) {
	c, s, _, _ := rawPair(t)
	c.raw.SetWriteDeadline(time.Now().Add(50 * time.Millisecond))
	if err := c.WriteMsg([]byte("first")); err == nil {
		t.Fatal("torn write succeeded with nobody reading")
	}
	c.raw.SetWriteDeadline(time.Time{})
	type res struct {
		b   []byte
		err error
	}
	ch := make(chan res, 1)
	go func() {
		b, err := s.ReadMsg()
		ch <- res{b, err}
	}()
	c.WriteMsg([]byte("second")) // transport may accept it; the AEAD must not
	r := <-ch
	if r.err == nil {
		t.Fatalf("desynced channel delivered %q — AEAD sequence silently realigned", r.b)
	}
}
