package secchan

import (
	"encoding/binary"
	"net"
	"sync"
	"testing"
)

// sentFrame is one handshake frame as it left an end: who wrote it, its
// type byte and its length (the type byte and the body; the 4-byte length
// header is not counted).
type sentFrame struct {
	from string
	typ  byte
	size int
}

// frameLog records every Write of both ends of a handshake as a frame.
// Each handshake frame is one Write, so a Write's header and type byte
// describe it whole.
type frameLog struct {
	mu     sync.Mutex
	frames []sentFrame
}

type loggedConn struct {
	net.Conn
	from string
	log  *frameLog
}

func (c *loggedConn) Write(p []byte) (int, error) {
	f := sentFrame{from: c.from, typ: 0xff, size: -1}
	if len(p) >= 5 {
		f.typ, f.size = p[4], int(binary.BigEndian.Uint32(p))
	}
	c.log.mu.Lock()
	c.log.frames = append(c.log.frames, f)
	c.log.mu.Unlock()
	return c.Conn.Write(p)
}

// loggedHandshake runs one Client/Server handshake over a pipe whose ends
// record what they write, and returns the frames in the order written.
// The handshake alternates strictly, so that order is the protocol's.
func loggedHandshake(t *testing.T, ccfg, scfg Config) []sentFrame {
	t.Helper()
	log := &frameLog{}
	cp, sp := net.Pipe()
	cRaw, sRaw := &loggedConn{Conn: cp, from: "client", log: log}, &loggedConn{Conn: sp, from: "server", log: log}
	errc := make(chan error, 1)
	go func() {
		s, err := Server(sRaw, scfg)
		if err == nil {
			s.Close()
		}
		errc <- err
	}()
	c, err := Client(cRaw, ccfg)
	if err != nil {
		t.Fatalf("client handshake: %v", err)
	}
	c.Close()
	if err := <-errc; err != nil {
		t.Fatalf("server handshake: %v", err)
	}
	return log.frames
}

// TestHandshakeFrames pins the handshake's traffic: every frame each end
// writes, by type and length, for a full handshake that issues a ticket, a
// resumption, a full handshake against a server that keeps no tickets, and
// a refused resumption with its full fallback. Sizes are for "engine"
// talking to "attest-server".
func TestHandshakeFrames(t *testing.T) {
	var (
		helloC   = sentFrame{"client", hsHelloC, 67}
		helloS   = sentFrame{"server", hsHelloS, 174}
		finishC  = sentFrame{"client", hsFinishC, 105}
		ticket   = sentFrame{"server", hsTicket, 144}
		noTicket = sentFrame{"server", hsTicket, 2}
		resumeC  = sentFrame{"client", hsResumeC, 183}
		accept   = sentFrame{"server", hsResumeS, 193}
		reject   = sentFrame{"server", hsResumeS, 2}
	)
	ccfg, scfg, keeper, _ := resumeConfigs(t, 0)
	keeperless := scfg
	keeperless.Tickets = nil
	freshClient := ccfg
	freshClient.Session = NewSessionCache()

	runs := []struct {
		name       string
		ccfg, scfg Config
		before     func()
		want       []sentFrame
	}{
		{"full handshake with a ticket", ccfg, scfg, nil,
			[]sentFrame{helloC, helloS, finishC, ticket}},
		{"resumption", ccfg, scfg, nil,
			[]sentFrame{resumeC, accept}},
		{"full handshake against a server without a keeper", freshClient, keeperless, nil,
			[]sentFrame{helloC, helloS, finishC, noTicket}},
		{"refused resumption and its full fallback", ccfg, scfg, func() {
			if err := keeper.Rotate(); err != nil {
				t.Fatal(err)
			}
		}, []sentFrame{resumeC, reject, helloC, helloS, finishC, ticket}},
	}
	for _, run := range runs {
		if run.before != nil {
			run.before()
		}
		got := loggedHandshake(t, run.ccfg, run.scfg)
		if len(got) != len(run.want) {
			t.Errorf("%s: %d writes %v, want %d %v", run.name, len(got), got, len(run.want), run.want)
			continue
		}
		for i := range got {
			if got[i] != run.want[i] {
				t.Errorf("%s: write %d is %+v, want %+v", run.name, i, got[i], run.want[i])
			}
		}
	}
}
