package rpc

import (
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"
	"sync"
	"testing"

	"cloudmonatt/internal/binenc"
	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/secchan"
)

func verifyAny(name string, key ed25519.PublicKey) error { return nil }

// echoReq and echoResp are the tests' messages: one string under a tag no
// real message uses.
type echoReq struct{ Text string }
type echoResp struct{ Text string }

const tagTestText = 0x7E

func appendText(b []byte, s string) []byte {
	return binenc.AppendString(binenc.AppendHeader(b, tagTestText), s)
}

func decodeText(data []byte, s *string) error {
	rd := binenc.NewReader(data)
	rd.Header(tagTestText)
	*s = rd.String()
	return rd.Done()
}

func (m echoReq) AppendWire(b []byte) []byte  { return appendText(b, m.Text) }
func (m *echoReq) DecodeWire(d []byte) error  { return decodeText(d, &m.Text) }
func (m echoResp) AppendWire(b []byte) []byte { return appendText(b, m.Text) }
func (m *echoResp) DecodeWire(d []byte) error { return decodeText(d, &m.Text) }

func startEcho(t *testing.T, n Network, addr string, id *cryptoutil.Identity) {
	t.Helper()
	l, err := n.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go Serve(l, secchan.Config{Identity: id, Verify: verifyAny}, func(peer Peer, method string, body []byte) ([]byte, error) {
		switch method {
		case "echo":
			var req echoReq
			if err := Decode(body, &req); err != nil {
				return nil, err
			}
			return Encode(echoResp{Text: req.Text})
		case "whoami":
			return Encode(echoResp{Text: peer.Name})
		case "fail":
			return nil, errors.New("deliberate failure")
		}
		return nil, fmt.Errorf("no such method %q", method)
	})
}

func TestCallRoundTrip(t *testing.T) {
	n := NewMemNetwork()
	server := cryptoutil.MustIdentity("server")
	startEcho(t, n, "srv", server)
	c, err := DialContext(context.Background(), n, "srv", secchan.Config{Identity: cryptoutil.MustIdentity("client"), Verify: verifyAny})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var resp echoResp
	if err := c.Call("echo", echoReq{Text: "hello"}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Text != "hello" {
		t.Fatalf("echo returned %q", resp.Text)
	}
	if c.conn.PeerName() != "server" {
		t.Fatalf("peer name %q", c.conn.PeerName())
	}
}

func TestHandlerSeesAuthenticatedPeer(t *testing.T) {
	n := NewMemNetwork()
	startEcho(t, n, "srv", cryptoutil.MustIdentity("server"))
	c, err := DialContext(context.Background(), n, "srv", secchan.Config{Identity: cryptoutil.MustIdentity("alice"), Verify: verifyAny})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var resp echoResp
	if err := c.Call("whoami", echoReq{}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Text != "alice" {
		t.Fatalf("server saw peer %q, want alice", resp.Text)
	}
}

func TestErrorPropagation(t *testing.T) {
	n := NewMemNetwork()
	startEcho(t, n, "srv", cryptoutil.MustIdentity("server"))
	c, _ := DialContext(context.Background(), n, "srv", secchan.Config{Identity: cryptoutil.MustIdentity("x"), Verify: verifyAny})
	defer c.Close()
	err := c.Call("fail", echoReq{}, nil)
	if err == nil || !contains(err.Error(), "deliberate failure") {
		t.Fatalf("error not propagated: %v", err)
	}
	if err := c.Call("nope", echoReq{}, nil); err == nil {
		t.Fatal("unknown method succeeded")
	}
	// The connection survives handler errors.
	var resp echoResp
	if err := c.Call("echo", echoReq{Text: "still alive"}, &resp); err != nil {
		t.Fatalf("connection dead after handler error: %v", err)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestConcurrentClients(t *testing.T) {
	n := NewMemNetwork()
	startEcho(t, n, "srv", cryptoutil.MustIdentity("server"))
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := DialContext(context.Background(), n, "srv", secchan.Config{Identity: cryptoutil.MustIdentity(fmt.Sprintf("c%d", i)), Verify: verifyAny})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < 20; j++ {
				var resp echoResp
				msg := fmt.Sprintf("%d-%d", i, j)
				if err := c.Call("echo", echoReq{Text: msg}, &resp); err != nil {
					errs <- err
					return
				}
				if resp.Text != msg {
					errs <- fmt.Errorf("cross-talk: sent %q got %q", msg, resp.Text)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestMemNetworkAddressing(t *testing.T) {
	n := NewMemNetwork()
	if _, err := n.DialContext(context.Background(), "nowhere"); err == nil {
		t.Fatal("dialed a non-listening address")
	}
	l, err := n.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("a"); err == nil {
		t.Fatal("double listen on one address")
	}
	if got := l.Addr().String(); got != "a" {
		t.Fatalf("listener addr %q", got)
	}
	l.Close()
	if _, err := n.DialContext(context.Background(), "a"); err == nil {
		t.Fatal("dialed a closed listener")
	}
	if _, err := n.Listen("a"); err != nil {
		t.Fatalf("address not released after close: %v", err)
	}
}

func TestTCPNetwork(t *testing.T) {
	n := TCPNetwork{}
	l, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback networking: %v", err)
	}
	defer l.Close()
	server := cryptoutil.MustIdentity("server")
	go Serve(l, secchan.Config{Identity: server, Verify: verifyAny}, func(peer Peer, method string, body []byte) ([]byte, error) {
		return Encode(echoResp{Text: "tcp"})
	})
	c, err := DialContext(context.Background(), n, l.Addr().String(), secchan.Config{Identity: cryptoutil.MustIdentity("x"), Verify: verifyAny})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var resp echoResp
	if err := c.Call("any", echoReq{}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Text != "tcp" {
		t.Fatalf("got %q", resp.Text)
	}
}
