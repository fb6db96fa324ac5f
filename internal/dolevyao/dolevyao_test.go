package dolevyao

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"errors"
	"strings"
	"testing"

	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/rpc"
	"cloudmonatt/internal/secchan"
)

const secretText = "SUPER-SECRET-ATTESTATION-REPORT-R"

// rig starts an echo server on a MemNetwork owned by the attacker and
// returns a dialer.
func rig(t *testing.T, atk *Attacker) func() (*rpc.Client, error) {
	t.Helper()
	n := rpc.NewMemNetwork()
	n.Intercept = atk.Intercept
	server := cryptoutil.MustIdentity("server")
	l, err := n.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	verify := func(name string, key ed25519.PublicKey) error { return nil }
	go rpc.Serve(l, secchan.Config{Identity: server, Verify: verify}, func(peer rpc.Peer, method string, body []byte) ([]byte, error) {
		// Echo: both sides pass raw bytes, which rpc carries as they are.
		return body, nil
	})
	client := cryptoutil.MustIdentity("client")
	return func() (*rpc.Client, error) {
		return rpc.DialContext(context.Background(), n, "srv", secchan.Config{Identity: client, Verify: verify})
	}
}

func TestPassiveAttackerSeesOnlyCiphertext(t *testing.T) {
	atk := &Attacker{}
	dial := rig(t, atk)
	c, err := dial()
	if err != nil {
		t.Fatalf("handshake under passive attacker failed: %v", err)
	}
	defer c.Close()
	var resp []byte
	if err := c.Call("ping", []byte(secretText), &resp); err != nil {
		t.Fatal(err)
	}
	if string(resp) != secretText {
		t.Fatalf("echo %q", resp)
	}
	obs := atk.ObservedPayloads()
	if len(obs) == 0 {
		t.Fatal("attacker observed nothing — interception broken")
	}
	if bytes.Contains(obs, []byte(secretText)) {
		t.Fatal("secret appears in clear on the wire")
	}
	if bytes.Contains(obs, []byte("ping")) {
		t.Fatal("method name appears in clear on the wire")
	}
}

func TestTamperedDataFrameDetected(t *testing.T) {
	// Frames 0,1 C2S are the handshake (hello, finish); frame 2 is the
	// first encrypted request.
	atk := &Attacker{C2S: TamperFrame(2)}
	dial := rig(t, atk)
	c, err := dial()
	if err != nil {
		t.Fatalf("handshake failed: %v", err)
	}
	defer c.Close()
	var resp []byte
	if err := c.Call("ping", []byte("x"), &resp); err == nil {
		t.Fatal("tampered request produced a successful call")
	}
}

func TestTamperedHandshakeDetected(t *testing.T) {
	atk := &Attacker{C2S: TamperFrame(0)}
	dial := rig(t, atk)
	c, err := dial()
	if err == nil {
		// Client side may not fail until the server's (never-arriving)
		// response; a call must fail at the latest.
		defer c.Close()
		if cerr := c.Call("ping", []byte("x"), new([]byte)); cerr == nil {
			t.Fatal("tampered handshake went unnoticed")
		}
	}
}

func TestReplayedFrameDetected(t *testing.T) {
	atk := &Attacker{C2S: ReplayFrame(2)}
	dial := rig(t, atk)
	c, err := dial()
	if err != nil {
		t.Fatalf("handshake failed: %v", err)
	}
	defer c.Close()
	// First call may succeed (original copy arrives first), but the server
	// kills the channel on the replayed record, so a subsequent call fails.
	var resp []byte
	err1 := c.Call("ping", []byte("a"), &resp)
	err2 := c.Call("ping", []byte("b"), &resp)
	if err1 == nil && err2 == nil {
		t.Fatal("replayed record never detected")
	}
}

func TestInjectedFrameDetected(t *testing.T) {
	forged := []byte("totally-legit-attestation-report")
	atk := &Attacker{S2C: InjectBefore(1, forged)}
	dial := rig(t, atk)
	c, err := dial()
	if err != nil {
		t.Fatalf("handshake failed: %v", err)
	}
	defer c.Close()
	var resp []byte
	if err := c.Call("ping", []byte("x"), &resp); err == nil {
		t.Fatal("injected reply accepted")
	}
}

func TestReorderedFramesDetected(t *testing.T) {
	// Reordering stalls a request/response protocol, so test at the secure-
	// channel layer: the client streams two records back-to-back, the
	// attacker swaps them, and the receiver must reject the out-of-sequence
	// record.
	atk := &Attacker{C2S: SwapFrames(2)}
	n := rpc.NewMemNetwork()
	n.Intercept = atk.Intercept
	serverID := cryptoutil.MustIdentity("server")
	clientID := cryptoutil.MustIdentity("client")
	verify := func(name string, key ed25519.PublicKey) error { return nil }
	l, err := n.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	result := make(chan error, 1)
	go func() {
		raw, err := l.Accept()
		if err != nil {
			result <- err
			return
		}
		conn, err := secchan.Server(raw, secchan.Config{Identity: serverID, Verify: verify})
		if err != nil {
			result <- err
			return
		}
		if _, err := conn.ReadMsg(); err != nil {
			result <- nil // rejected first delivered (swapped) record: good
			return
		}
		_, err = conn.ReadMsg()
		if err == nil {
			result <- errSwappedAccepted
			return
		}
		result <- nil
	}()
	raw, err := n.DialContext(context.Background(), "srv")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := secchan.Client(raw, secchan.Config{Identity: clientID, Verify: verify})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.WriteMsg([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := conn.WriteMsg([]byte("second")); err != nil {
		t.Fatal(err)
	}
	if err := <-result; err != nil {
		t.Fatal(err)
	}
}

var errSwappedAccepted = errors.New("swapped records accepted in order")

func TestDroppedFrameStallsNotForges(t *testing.T) {
	atk := &Attacker{S2C: DropFrame(1)}
	dial := rig(t, atk)
	c, err := dial()
	if err != nil {
		t.Fatalf("handshake failed: %v", err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		var resp []byte
		done <- c.Call("ping", []byte("x"), &resp)
	}()
	select {
	case err := <-done:
		// Acceptable outcomes: an error (connection torn down) — but never a
		// successful call with attacker-controlled content.
		if err == nil {
			t.Fatal("call succeeded despite dropped response")
		}
	default:
		// Blocked forever = denial of service, which Dolev-Yao attackers can
		// always achieve; not a protocol failure.
	}
}

func TestObservedFrameAccounting(t *testing.T) {
	atk := &Attacker{}
	dial := rig(t, atk)
	c, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var resp []byte
	if err := c.Call("ping", []byte("x"), &resp); err != nil {
		t.Fatal(err)
	}
	frames := atk.Observed()
	var c2s, s2c int
	for _, f := range frames {
		switch f.Dir {
		case ClientToServer:
			c2s++
		case ServerToClient:
			s2c++
		}
	}
	// hello + finish + request = 3 client frames; server hello + reply = 2.
	if c2s < 3 || s2c < 2 {
		t.Fatalf("frame accounting off: c2s=%d s2c=%d", c2s, s2c)
	}
	var summary strings.Builder
	for _, f := range frames {
		if f.Payload == nil {
			t.Fatal("captured frame without payload")
		}
		summary.WriteByte(byte('0' + int(f.Dir)))
	}
	if summary.Len() != len(frames) {
		t.Fatal("inconsistent capture")
	}
}
