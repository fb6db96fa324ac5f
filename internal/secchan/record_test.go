package secchan

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"testing"
)

// countingConn counts the Read calls made on a transport.
type countingConn struct {
	net.Conn
	reads int
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads++
	return c.Conn.Read(p)
}

// TestRecordIsOneRead: once the first record has sized the read buffer,
// each record written with one Write reaches the reader in one Read.
func TestRecordIsOneRead(t *testing.T) {
	c, s, _, _ := rawPair(t)
	counted := &countingConn{Conn: c.raw}
	c.raw = counted
	const n = 16
	payload := make([]byte, 300)
	errc := make(chan error, 1)
	go func() {
		for i := 0; i <= n; i++ {
			if err := s.WriteMsg(payload); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	if _, err := c.ReadMsg(); err != nil {
		t.Fatal(err)
	}
	counted.reads = 0
	for i := 0; i < n; i++ {
		got, err := c.ReadMsg()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("record %d read back wrong", i)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if counted.reads != n {
		t.Fatalf("%d records took %d Reads, want %d", n, counted.reads, n)
	}
}

// scriptConn is a transport that records what is written to it and, when
// read, hands out its input in the given fragments, each Read returning at
// most one fragment, then io.EOF.
type scriptConn struct {
	net.Conn
	out   bytes.Buffer
	frags [][]byte
}

func (c *scriptConn) Write(p []byte) (int, error) { return c.out.Write(p) }

func (c *scriptConn) Read(p []byte) (int, error) {
	if len(c.frags) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.frags[0])
	if c.frags[0] = c.frags[0][n:]; len(c.frags[0]) == 0 {
		c.frags = c.frags[1:]
	}
	return n, nil
}

// recordPair returns the two ends of a channel keyed without a handshake,
// both on scriptConns: what the sender writes is what the receiver's
// script is cut from.
func recordPair(t testing.TB) (send, recv *Conn) {
	k1, k2 := bytes.Repeat([]byte{1}, 32), bytes.Repeat([]byte{2}, 32)
	send, err := newConn(&scriptConn{}, "recv", k1, k2, false)
	if err != nil {
		t.Fatal(err)
	}
	recv, err = newConn(&scriptConn{}, "send", k2, k1, false)
	if err != nil {
		t.Fatal(err)
	}
	return send, recv
}

// sealAll writes each payload as one record and returns the frames' bytes.
func sealAll(t testing.TB, send *Conn, payloads [][]byte) []byte {
	for _, p := range payloads {
		if err := send.WriteMsg(p); err != nil {
			t.Fatal(err)
		}
	}
	return send.raw.(*scriptConn).out.Bytes()
}

// cutAt splits b into fragments whose lengths cycle through cuts (each
// 1 + the cut byte); no cuts means one fragment.
func cutAt(b, cuts []byte) [][]byte {
	if len(cuts) == 0 {
		return [][]byte{b}
	}
	var frags [][]byte
	for i := 0; len(b) > 0; i++ {
		n := min(1+int(cuts[i%len(cuts)]), len(b))
		frags, b = append(frags, b[:n]), b[n:]
	}
	return frags
}

// readAll reads len(want) records from recv off the fragments and checks
// them against want, then checks that the stream ends cleanly.
func readAll(t testing.TB, recv *Conn, frags [][]byte, want [][]byte) {
	t.Helper()
	recv.raw.(*scriptConn).frags = frags
	for i, w := range want {
		got, err := recv.ReadMsg()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, w) {
			t.Fatalf("record %d: got %q, want %q", i, got, w)
		}
	}
	if _, err := recv.ReadMsg(); err != io.EOF {
		t.Fatalf("after the last record: %v, want io.EOF", err)
	}
}

// TestRecordsSurviveAnyReadSplit: however the transport cuts three
// records' bytes — a byte at a time, in random fragments, or all in one
// Read — ReadMsg returns the same plaintexts in order. The second record
// is larger than the first, so the buffer the first sized has to grow
// around bytes already read. Bad frames are still refused.
func TestRecordsSurviveAnyReadSplit(t *testing.T) {
	payloads := [][]byte{[]byte("startup-integrity"), bytes.Repeat([]byte("evidence "), 40), []byte("ok")}
	splits := map[string]func([]byte) [][]byte{
		"bytewise": func(b []byte) [][]byte { return cutAt(b, []byte{0}) },
		"whole":    func(b []byte) [][]byte { return cutAt(b, nil) },
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		cuts := make([]byte, 1+rng.Intn(8))
		rng.Read(cuts)
		splits[fmt.Sprintf("random-%d", i)] = func(b []byte) [][]byte { return cutAt(b, cuts) }
	}
	for name, split := range splits {
		t.Run(name, func(t *testing.T) {
			send, recv := recordPair(t)
			readAll(t, recv, split(sealAll(t, send, payloads)), payloads)
		})
	}
	t.Run("bad-frames", testBadFramesRefused)
}

// testBadFramesRefused: an oversized length header is refused before it
// sizes the buffer, whether or not a record came first, and a frame torn
// by the end of the stream is an error, not a record.
func testBadFramesRefused(t *testing.T) {
	oversized := []byte{0xff, 0xff, 0xff, 0xff, 0}
	_, recv := recordPair(t)
	recv.raw.(*scriptConn).frags = [][]byte{oversized}
	if _, err := recv.ReadMsg(); err == nil || cap(recv.recvBuf) != 0 {
		t.Fatalf("first frame oversized: err %v, buffer cap %d", err, cap(recv.recvBuf))
	}

	send, recv := recordPair(t)
	first := sealAll(t, send, [][]byte{[]byte("first")})
	recv.raw.(*scriptConn).frags = [][]byte{append(first, oversized...)}
	if _, err := recv.ReadMsg(); err != nil {
		t.Fatal(err)
	}
	sized := cap(recv.recvBuf)
	if _, err := recv.ReadMsg(); err == nil || cap(recv.recvBuf) != sized {
		t.Fatalf("later frame oversized: err %v, buffer cap %d, was %d", err, cap(recv.recvBuf), sized)
	}

	send, _ = recordPair(t)
	frame := sealAll(t, send, [][]byte{[]byte("torn")})
	for _, cut := range []int{2, 4, len(frame) - 1} {
		_, recv := recordPair(t)
		recv.raw.(*scriptConn).frags = [][]byte{frame[:cut]}
		if _, err := recv.ReadMsg(); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("frame torn at %d of %d: %v, want io.ErrUnexpectedEOF", cut, len(frame), err)
		}
	}
}

// TestHandshakeFrameAllocsOnce: a handshake frame is built in one buffer,
// its body appended in place behind the header and the type byte.
func TestHandshakeFrameAllocsOnce(t *testing.T) {
	hs := helloS{Name: "attest-server", Eph: make([]byte, 32), Key: make([]byte, 32), Sig: make([]byte, 64)}
	if n := testing.AllocsPerRun(100, func() {
		if err := sendHS(io.Discard, hs.appendWire(startHS(hsHelloS))); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("a hello_s frame allocates %.1f times, want 1", n)
	}
}

// FuzzRecordReadSplits: records cut from payloads at each zero byte, sent
// through a transport that cuts their bytes into fragments sized by cuts,
// read back unchanged and in order.
func FuzzRecordReadSplits(f *testing.F) {
	f.Add([]byte("startup\x00runtime\x00covert-channel"), []byte{})
	f.Add([]byte("a\x00\x00bb"), []byte{0})
	f.Add(bytes.Repeat([]byte("evidence"), 64), []byte{3, 200, 17})
	f.Fuzz(func(t *testing.T, payloads, cuts []byte) {
		records := bytes.Split(payloads, []byte{0})
		send, recv := recordPair(t)
		readAll(t, recv, cutAt(sealAll(t, send, records), cuts), records)
	})
}
