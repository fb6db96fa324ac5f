package secchan

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"fmt"
	"net"
	"testing"
	"testing/quick"

	"cloudmonatt/internal/cryptoutil"
)

// registry builds a VerifyPeer from a fixed name→key table.
func registry(ids ...*cryptoutil.Identity) VerifyPeer {
	table := make(map[string]ed25519.PublicKey)
	for _, id := range ids {
		table[id.Name] = id.Public()
	}
	return func(name string, key ed25519.PublicKey) error {
		want, ok := table[name]
		if !ok {
			return fmt.Errorf("unknown peer %q", name)
		}
		if !cryptoutil.KeyEqual(want, key) {
			return errors.New("identity key mismatch")
		}
		return nil
	}
}

// pair establishes a channel between two identities over a pipe.
func pair(t *testing.T, ci, si *cryptoutil.Identity, verify VerifyPeer) (*Conn, *Conn) {
	t.Helper()
	cRaw, sRaw := net.Pipe()
	type res struct {
		c   *Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		s, err := Server(sRaw, Config{Identity: si, Verify: verify})
		ch <- res{s, err}
	}()
	c, err := Client(cRaw, Config{Identity: ci, Verify: verify})
	if err != nil {
		t.Fatalf("client handshake: %v", err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatalf("server handshake: %v", r.err)
	}
	return c, r.c
}

func TestHandshakeAndRoundTrip(t *testing.T) {
	ci, si := cryptoutil.MustIdentity("customer"), cryptoutil.MustIdentity("controller")
	c, s := pair(t, ci, si, registry(ci, si))
	defer c.Close()
	if c.PeerName() != "controller" || s.PeerName() != "customer" {
		t.Fatalf("peer names: %q / %q", c.PeerName(), s.PeerName())
	}
	msg := []byte("attest vm-1 please")
	done := make(chan []byte, 1)
	go func() {
		got, err := s.ReadMsg()
		if err != nil {
			done <- nil
			return
		}
		done <- got
	}()
	if err := c.WriteMsg(msg); err != nil {
		t.Fatal(err)
	}
	if got := <-done; !bytes.Equal(got, msg) {
		t.Fatalf("round trip got %q", got)
	}
}

func TestBidirectionalMessages(t *testing.T) {
	ci, si := cryptoutil.MustIdentity("a"), cryptoutil.MustIdentity("b")
	c, s := pair(t, ci, si, registry(ci, si))
	defer c.Close()
	for i := 0; i < 10; i++ {
		want := []byte(fmt.Sprintf("msg-%d", i))
		errc := make(chan error, 1)
		go func() {
			got, err := s.ReadMsg()
			if err == nil && !bytes.Equal(got, want) {
				err = fmt.Errorf("got %q", got)
			}
			if err == nil {
				err = s.WriteMsg(append([]byte("ack-"), got...))
			}
			errc <- err
		}()
		if err := c.WriteMsg(want); err != nil {
			t.Fatal(err)
		}
		ack, err := c.ReadMsg()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ack, append([]byte("ack-"), want...)) {
			t.Fatalf("ack %q", ack)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

func TestRejectUnknownPeer(t *testing.T) {
	ci, si := cryptoutil.MustIdentity("mallory"), cryptoutil.MustIdentity("controller")
	cRaw, sRaw := net.Pipe()
	verify := registry(si) // mallory is not registered
	go Client(cRaw, Config{Identity: ci, Verify: registry(ci, si)})
	if _, err := Server(sRaw, Config{Identity: si, Verify: verify}); err == nil {
		t.Fatal("server accepted unregistered client")
	}
}

func TestRejectImpersonator(t *testing.T) {
	// Mallory claims to be "controller" but has her own key.
	real := cryptoutil.MustIdentity("controller")
	mallory := cryptoutil.MustIdentity("controller") // same name, different key
	customer := cryptoutil.MustIdentity("customer")
	verify := registry(customer, real)
	cRaw, sRaw := net.Pipe()
	go Server(sRaw, Config{Identity: mallory, Verify: verify})
	if _, err := Client(cRaw, Config{Identity: customer, Verify: verify}); err == nil {
		t.Fatal("client accepted impersonating server")
	}
}

func TestConfigValidation(t *testing.T) {
	cRaw, _ := net.Pipe()
	if _, err := Client(cRaw, Config{}); err == nil {
		t.Fatal("client accepted empty config")
	}
	if _, err := Server(cRaw, Config{}); err == nil {
		t.Fatal("server accepted empty config")
	}
}

// tamperConn flips a byte in the nth record payload flowing through Write.
type tamperConn struct {
	net.Conn
	count  int
	target int
}

func (tc *tamperConn) Write(b []byte) (int, error) {
	tc.count++
	if tc.count == tc.target && len(b) > 0 {
		mut := append([]byte(nil), b...)
		mut[len(mut)-1] ^= 1
		return tc.Conn.Write(mut)
	}
	return tc.Conn.Write(b)
}

func TestTamperedRecordDetected(t *testing.T) {
	ci, si := cryptoutil.MustIdentity("a"), cryptoutil.MustIdentity("b")
	verify := registry(ci, si)
	cRaw, sRaw := net.Pipe()
	type res struct {
		c   *Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		s, err := Server(sRaw, Config{Identity: si, Verify: verify})
		ch <- res{s, err}
	}()
	// Every frame is one Write: hello(1), finish(2), rec1(3), rec2(4).
	// Tamper with write #4 = the 2nd data record.
	tc := &tamperConn{Conn: cRaw, target: 4}
	c, err := Client(tc, Config{Identity: ci, Verify: verify})
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	readErr := make(chan error, 2)
	go func() {
		_, err1 := r.c.ReadMsg()
		readErr <- err1
		_, err2 := r.c.ReadMsg()
		readErr <- err2
	}()
	if err := c.WriteMsg([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := <-readErr; err != nil {
		t.Fatalf("untampered record rejected: %v", err)
	}
	if err := c.WriteMsg([]byte("second")); err != nil {
		t.Fatal(err)
	}
	if err := <-readErr; err == nil {
		t.Fatal("tampered record accepted")
	}
}

// replayConn records the nth frame write and replays it instead of the
// n+1th (each frame is a single Write).
type replayConn struct {
	net.Conn
	count    int
	capture  int
	replayAt int
	captured []byte
}

func (rc *replayConn) Write(b []byte) (int, error) {
	rc.count++
	if rc.count == rc.capture {
		rc.captured = append([]byte(nil), b...)
	}
	if rc.count == rc.replayAt {
		if _, err := rc.Conn.Write(rc.captured); err != nil {
			return 0, err
		}
		return len(b), nil
	}
	return rc.Conn.Write(b)
}

func TestReplayedRecordDetected(t *testing.T) {
	ci, si := cryptoutil.MustIdentity("a"), cryptoutil.MustIdentity("b")
	verify := registry(ci, si)
	cRaw, sRaw := net.Pipe()
	type res struct {
		c   *Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		s, err := Server(sRaw, Config{Identity: si, Verify: verify})
		ch <- res{s, err}
	}()
	// Client writes: hello(1) finish(2) rec1(3) rec2(4). Capture the rec1
	// frame, replay it in place of rec2.
	rc := &replayConn{Conn: cRaw, capture: 3, replayAt: 4}
	c, err := Client(rc, Config{Identity: ci, Verify: verify})
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	readErr := make(chan error, 2)
	go func() {
		_, err1 := r.c.ReadMsg()
		readErr <- err1
		_, err2 := r.c.ReadMsg()
		readErr <- err2
	}()
	if err := c.WriteMsg([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := <-readErr; err != nil {
		t.Fatalf("first record rejected: %v", err)
	}
	if err := c.WriteMsg([]byte("second")); err != nil {
		t.Fatal(err)
	}
	if err := <-readErr; err == nil {
		t.Fatal("replayed record accepted (sequence nonce not enforced)")
	}
}

func TestQuickRoundTripArbitraryPayloads(t *testing.T) {
	ci, si := cryptoutil.MustIdentity("a"), cryptoutil.MustIdentity("b")
	c, s := pair(t, ci, si, registry(ci, si))
	defer c.Close()
	f := func(payload []byte) bool {
		got := make(chan []byte, 1)
		go func() {
			m, err := s.ReadMsg()
			if err != nil {
				m = nil
			}
			got <- m
		}()
		if err := c.WriteMsg(payload); err != nil {
			return false
		}
		return bytes.Equal(<-got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestUnpackFieldsErrors: a handshake body's length-prefixed fields are
// refused when a length header is cut short, when a field runs past the
// end of the body, and when bytes trail the last field — for every body a
// peer sends, not just the one whose fields are all length-prefixed.
func TestUnpackFieldsErrors(t *testing.T) {
	if err := new(finishC).decodeWire([]byte{0, 0}); err == nil {
		t.Fatal("truncated header accepted")
	}
	if err := new(finishC).decodeWire([]byte{0, 0, 0, 9, 'x'}); err == nil {
		t.Fatal("truncated field accepted")
	}
	seeds := handshakeSeeds()
	bodies := []handshakeBody{&helloC{}, &helloS{}, &finishC{}, &ticketFrame{}, &ticketFrame{}, &resumeC{}, &resumeS{}, &resumeS{}}
	for i, m := range bodies {
		good := seeds[i]
		if err := m.decodeWire(good); err != nil {
			t.Fatalf("%T: well-formed body %x rejected: %v", m, good, err)
		}
		if err := m.decodeWire(append(good[:len(good):len(good)], 0xFF)); err == nil {
			t.Errorf("%T: trailing bytes accepted", m)
		}
		if err := m.decodeWire(good[:len(good)-1]); err == nil {
			t.Errorf("%T: body cut one byte short accepted", m)
		}
	}
}

// TestRecordRoundTripAllocFree: once the record buffers have grown, a
// WriteMsg/ReadMsg round trip through an echoing peer allocates nothing —
// the header, both nonces and both records live in the Conn.
func TestRecordRoundTripAllocFree(t *testing.T) {
	ci, si := cryptoutil.MustIdentity("a"), cryptoutil.MustIdentity("b")
	c, s := pair(t, ci, si, registry(ci, si))
	defer c.Close()
	go func() {
		for {
			msg, err := s.ReadMsg()
			if err != nil || s.WriteMsg(msg) != nil {
				return
			}
		}
	}()
	payload := make([]byte, 512)
	roundTrip := func() {
		if err := c.WriteMsg(payload); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ReadMsg(); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip() // grows the record buffers
	if n := testing.AllocsPerRun(100, roundTrip); n != 0 {
		t.Fatalf("a record round trip allocates %.1f times, want 0", n)
	}
}

func BenchmarkSecureChannelRoundTrip(b *testing.B) {
	ci, si := cryptoutil.MustIdentity("a"), cryptoutil.MustIdentity("b")
	verify := registry(ci, si)
	cRaw, sRaw := net.Pipe()
	done := make(chan *Conn, 1)
	go func() {
		s, err := Server(sRaw, Config{Identity: si, Verify: verify})
		if err != nil {
			done <- nil
			return
		}
		done <- s
	}()
	c, err := Client(cRaw, Config{Identity: ci, Verify: verify})
	if err != nil {
		b.Fatal(err)
	}
	s := <-done
	if s == nil {
		b.Fatal("server handshake failed")
	}
	go func() {
		for {
			msg, err := s.ReadMsg()
			if err != nil {
				return
			}
			if err := s.WriteMsg(msg); err != nil {
				return
			}
		}
	}()
	payload := make([]byte, 1024)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.WriteMsg(payload); err != nil {
			b.Fatal(err)
		}
		if _, err := c.ReadMsg(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHandshake(b *testing.B) {
	ci, si := cryptoutil.MustIdentity("a"), cryptoutil.MustIdentity("b")
	verify := registry(ci, si)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cRaw, sRaw := net.Pipe()
		done := make(chan error, 1)
		go func() {
			_, err := Server(sRaw, Config{Identity: si, Verify: verify})
			done <- err
		}()
		if _, err := Client(cRaw, Config{Identity: ci, Verify: verify}); err != nil {
			b.Fatal(err)
		}
		if err := <-done; err != nil {
			b.Fatal(err)
		}
		cRaw.Close()
		sRaw.Close()
	}
}

// recordingConn keeps a copy of every byte written through it.
type recordingConn struct {
	net.Conn
	sent bytes.Buffer
}

func (r *recordingConn) Write(p []byte) (int, error) {
	r.sent.Write(p)
	return r.Conn.Write(p)
}

// fixedStream is a reader of 256 bytes that depend only on tag.
func fixedStream(tag string) *bytes.Reader {
	var b []byte
	for i := byte(0); i < 8; i++ {
		h := cryptoutil.Hash("secchan-test-stream", []byte(tag), []byte{i})
		b = append(b, h[:]...)
	}
	return bytes.NewReader(b)
}

// TestFullHandshakeDependsOnlyOnRand runs a full handshake twenty times
// with the same identities and fresh copies of the same Config.Rand
// streams: the hellos, the finish and a record each way, and so the
// ephemerals, nonces and traffic keys, must be byte-identical every time.
func TestFullHandshakeDependsOnlyOnRand(t *testing.T) {
	ci, si := cryptoutil.MustIdentity("customer"), cryptoutil.MustIdentity("controller")
	verify := registry(ci, si)
	var first []byte
	for rep := 0; rep < 20; rep++ {
		cp, sp := net.Pipe()
		cRaw, sRaw := &recordingConn{Conn: cp}, &recordingConn{Conn: sp}
		type res struct {
			c   *Conn
			err error
		}
		ch := make(chan res, 1)
		go func() {
			s, err := Server(sRaw, Config{Identity: si, Verify: verify, Rand: fixedStream("server")})
			if err == nil {
				var msg []byte
				if msg, err = s.ReadMsg(); err == nil {
					err = s.WriteMsg(msg)
				}
			}
			ch <- res{s, err}
		}()
		c, err := Client(cRaw, Config{Identity: ci, Verify: verify, Rand: fixedStream("client")})
		if err != nil {
			t.Fatalf("client handshake: %v", err)
		}
		if err := c.WriteMsg([]byte("the same record")); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ReadMsg(); err != nil {
			t.Fatal(err)
		}
		r := <-ch
		if r.err != nil {
			t.Fatalf("server: %v", r.err)
		}
		c.Close()
		r.c.Close()
		got := append(append([]byte(nil), cRaw.sent.Bytes()...), sRaw.sent.Bytes()...)
		if rep == 0 {
			first = got
		} else if !bytes.Equal(got, first) {
			t.Fatalf("handshake %d sent other bytes than handshake 0 from the same streams", rep)
		}
	}
}
