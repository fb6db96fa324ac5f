package secchan

import (
	"crypto/ed25519"
	"errors"
	"net"
	"testing"
	"time"

	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/dolevyao"
)

// resumePair runs one Client/Server handshake over a pipe with the given
// configs and returns both ends. The configs carry the resumption state
// (keeper, session cache), so calling it twice with the same configs
// exercises ticket issuance on the first connection and redemption on the
// second.
func resumePair(t *testing.T, ccfg, scfg Config) (*Conn, *Conn) {
	t.Helper()
	cRaw, sRaw := net.Pipe()
	type res struct {
		c   *Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		s, err := Server(sRaw, scfg)
		ch <- res{s, err}
	}()
	c, err := Client(cRaw, ccfg)
	if err != nil {
		t.Fatalf("client handshake: %v", err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatalf("server handshake: %v", r.err)
	}
	t.Cleanup(func() {
		c.Close()
		r.c.Close()
	})
	return c, r.c
}

func resumeConfigs(t *testing.T, lifetime time.Duration) (ccfg, scfg Config, keeper *TicketKeeper, cache *SessionCache) {
	t.Helper()
	ci, si := cryptoutil.MustIdentity("engine"), cryptoutil.MustIdentity("attest-server")
	verify := registry(ci, si)
	keeper, err := NewTicketKeeper(lifetime)
	if err != nil {
		t.Fatalf("NewTicketKeeper: %v", err)
	}
	cache = NewSessionCache()
	ccfg = Config{Identity: ci, Verify: verify, Session: cache, ResumeTo: "attest-server:1"}
	scfg = Config{Identity: si, Verify: verify, Tickets: keeper}
	return ccfg, scfg, keeper, cache
}

func checkRoundTrip(t *testing.T, c, s *Conn) {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- s.WriteMsg([]byte("verdict: secure")) }()
	msg, err := c.ReadMsg()
	if err != nil {
		t.Fatalf("client read: %v", err)
	}
	if string(msg) != "verdict: secure" {
		t.Fatalf("client read %q", msg)
	}
	if err := <-errc; err != nil {
		t.Fatalf("server write: %v", err)
	}
	go func() { _ = c.WriteMsg([]byte("attest vm-1")) }()
	msg, err = s.ReadMsg()
	if err != nil {
		t.Fatalf("server read: %v", err)
	}
	if string(msg) != "attest vm-1" {
		t.Fatalf("server read %q", msg)
	}
}

// TestResumeZeroAsymmetricOps is the hot-path claim itself: after one full
// handshake has planted a ticket, every subsequent reconnect rekeys with
// symmetric crypto only. The process-wide asymmetric-operation counters
// must not move at all across the resumed handshakes.
func TestResumeZeroAsymmetricOps(t *testing.T) {
	ccfg, scfg, _, cache := resumeConfigs(t, 0)

	c, s := resumePair(t, ccfg, scfg)
	if c.Resumed() || s.Resumed() {
		t.Fatal("first connection should be a full handshake")
	}
	if cache.Len() != 1 {
		t.Fatalf("ticket not cached after full handshake (cache len %d)", cache.Len())
	}

	// Three consecutive resumptions: each must re-ticket for the next.
	for i := 0; i < 3; i++ {
		before := cryptoutil.Ops()
		c, s = resumePair(t, ccfg, scfg)
		delta := cryptoutil.Ops().Sub(before)
		if !c.Resumed() || !s.Resumed() {
			t.Fatalf("resume %d: not resumed (client %v, server %v)", i, c.Resumed(), s.Resumed())
		}
		if n := delta.Asymmetric(); n != 0 {
			t.Fatalf("resume %d: %d asymmetric ops on the resumed path (sign=%d verify=%d ecdh=%d)",
				i, n, delta.Sign, delta.Verify, delta.ECDH)
		}
		if cache.Len() != 1 {
			t.Fatalf("resume %d: no fresh ticket issued (cache len %d)", i, cache.Len())
		}
		checkRoundTrip(t, c, s)
	}
}

// TestResumeTicketSingleUse replays a consumed ticket: the server must
// reject it (replay ring) and both sides must fall back to the full
// handshake on the same connection.
func TestResumeTicketSingleUse(t *testing.T) {
	ccfg, scfg, _, cache := resumeConfigs(t, 0)
	resumePair(t, ccfg, scfg)

	stolen := cache.take(ccfg.ResumeTo)
	if stolen == nil {
		t.Fatal("no ticket cached")
	}
	copied := *stolen
	cache.put(ccfg.ResumeTo, stolen)

	c, s := resumePair(t, ccfg, scfg) // legitimate resume consumes the ID
	if !c.Resumed() || !s.Resumed() {
		t.Fatal("legitimate resume rejected")
	}

	cache.put(ccfg.ResumeTo, &copied) // replay the consumed ticket
	c, s = resumePair(t, ccfg, scfg)
	if c.Resumed() || s.Resumed() {
		t.Fatal("replayed ticket was accepted")
	}
	checkRoundTrip(t, c, s) // fallback full handshake still authenticates
}

// TestResumeExpiredTicket moves the keeper's clock past the ticket
// lifetime: redemption must fail server-side and fall back to the full
// handshake.
func TestResumeExpiredTicket(t *testing.T) {
	ccfg, scfg, keeper, cache := resumeConfigs(t, time.Hour)
	base := time.Now()
	keeper.now = func() time.Time { return base }

	resumePair(t, ccfg, scfg)
	// Keep the client willing: its cached expiry is base+1h, checked against
	// the real clock, so only the server's view goes stale.
	keeper.now = func() time.Time { return base.Add(2 * time.Hour) }
	if tk := cache.take(ccfg.ResumeTo); tk == nil {
		t.Fatal("no ticket cached")
	} else {
		tk.Expiry = time.Time{} // client-side expiry out of the way
		cache.put(ccfg.ResumeTo, tk)
	}

	c, s := resumePair(t, ccfg, scfg)
	if c.Resumed() || s.Resumed() {
		t.Fatal("expired ticket was accepted")
	}
	checkRoundTrip(t, c, s)
}

// TestResumeAfterRotate rotates the keeper key, which must orphan every
// outstanding ticket (blobs no longer decrypt) without breaking connects.
func TestResumeAfterRotate(t *testing.T) {
	ccfg, scfg, keeper, _ := resumeConfigs(t, 0)
	resumePair(t, ccfg, scfg)
	if err := keeper.Rotate(); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	c, s := resumePair(t, ccfg, scfg)
	if c.Resumed() || s.Resumed() {
		t.Fatal("ticket sealed under a rotated key was accepted")
	}
	checkRoundTrip(t, c, s)
}

// TestResumeTamperedTicket flips one blob byte: the AEAD must reject it
// and the connection must still come up via the full handshake — tampering
// can force the asymmetric path but never break authentication.
func TestResumeTamperedTicket(t *testing.T) {
	ccfg, scfg, _, cache := resumeConfigs(t, 0)
	resumePair(t, ccfg, scfg)
	tk := cache.take(ccfg.ResumeTo)
	if tk == nil {
		t.Fatal("no ticket cached")
	}
	tk.Blob[len(tk.Blob)/2] ^= 0x40
	cache.put(ccfg.ResumeTo, tk)

	c, s := resumePair(t, ccfg, scfg)
	if c.Resumed() || s.Resumed() {
		t.Fatal("tampered ticket was accepted")
	}
	checkRoundTrip(t, c, s)
}

// TestResumeRevokedPeer revokes the client's registry binding between
// sessions: the server must refuse the resumption (tickets die with the
// registry entry), and the fallback full handshake must fail too.
func TestResumeRevokedPeer(t *testing.T) {
	ci, si := cryptoutil.MustIdentity("engine"), cryptoutil.MustIdentity("attest-server")
	inner := registry(ci, si)
	revoked := false
	verify := func(name string, key ed25519.PublicKey) error {
		if revoked && name == "engine" {
			return errors.New("peer revoked")
		}
		return inner(name, key)
	}
	keeper, err := NewTicketKeeper(0)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewSessionCache()
	ccfg := Config{Identity: ci, Verify: inner, Session: cache, ResumeTo: "srv"}
	scfg := Config{Identity: si, Verify: verify, Tickets: keeper}
	resumePair(t, ccfg, scfg)

	revoked = true
	cRaw, sRaw := net.Pipe()
	defer cRaw.Close()
	defer sRaw.Close()
	serr := make(chan error, 1)
	go func() {
		_, err := Server(sRaw, scfg)
		// A real server closes the transport on handshake failure; do the
		// same so the client is not left blocked on the synchronous pipe.
		sRaw.Close()
		serr <- err
	}()
	if _, err := Client(cRaw, ccfg); err == nil {
		t.Fatal("revoked client connected")
	}
	if err := <-serr; err == nil {
		t.Fatal("server accepted revoked client")
	}
}

// TestResumeServerWithoutKeeper: a client requesting a ticket from a
// server that keeps none gets the empty ticket payload, caches nothing,
// and keeps doing full handshakes.
func TestResumeServerWithoutKeeper(t *testing.T) {
	ccfg, scfg, _, cache := resumeConfigs(t, 0)
	scfg.Tickets = nil
	c, s := resumePair(t, ccfg, scfg)
	if c.Resumed() || s.Resumed() {
		t.Fatal("resumed without any keeper")
	}
	if cache.Len() != 0 {
		t.Fatalf("cached a ticket from a keeperless server (len %d)", cache.Len())
	}
	c, s = resumePair(t, ccfg, scfg)
	if c.Resumed() || s.Resumed() {
		t.Fatal("second connection resumed without a ticket")
	}
	checkRoundTrip(t, c, s)
}

// TestSessionCacheExpiry: the client itself skips resumption once its
// cached ticket's advisory expiry passes.
func TestSessionCacheExpiry(t *testing.T) {
	cache := NewSessionCache()
	cache.put("srv", &Ticket{Expiry: time.Unix(1, 0)}) // long past
	if tk := cache.take("srv"); tk != nil {
		t.Fatal("expired ticket returned from cache")
	}
	if cache.Len() != 0 {
		t.Fatal("expired ticket left in cache")
	}
}

// TestResumeWrongRMSRefused: a client whose cached ticket carries the
// wrong resumption master secret cannot produce the binder, so the server
// refuses the resumption and both sides fall back to a full handshake. The
// refused attempt must not consume the real ticket: redeemed afterwards,
// it still resumes.
func TestResumeWrongRMSRefused(t *testing.T) {
	ccfg, scfg, _, cache := resumeConfigs(t, 0)
	resumePair(t, ccfg, scfg)
	real := cache.take(ccfg.ResumeTo)
	if real == nil {
		t.Fatal("no ticket cached")
	}
	forged := *real
	forged.RMS[0] ^= 0x01
	cache.put(ccfg.ResumeTo, &forged)

	c, s := resumePair(t, ccfg, scfg)
	if c.Resumed() || s.Resumed() {
		t.Fatal("a ticket with the wrong RMS resumed")
	}
	checkRoundTrip(t, c, s)

	cache.put(ccfg.ResumeTo, real)
	c, s = resumePair(t, ccfg, scfg)
	if !c.Resumed() || !s.Resumed() {
		t.Fatal("the real ticket was consumed by the refused attempt")
	}
	checkRoundTrip(t, c, s)
}

// resumeSConfirmAt is where the confirm starts in a resume_s accept frame
// as the attacker sees it: after the type byte, the accept byte and the
// server's nonce.
const resumeSConfirmAt = 18

// TestResumeTamperedConfirmFailsClient: an attacker who alters the
// server's confirm in flight must make the client refuse the resumption;
// only a server that knows the RMS can produce it.
func TestResumeTamperedConfirmFailsClient(t *testing.T) {
	ccfg, scfg, _, _ := resumeConfigs(t, 0)
	resumePair(t, ccfg, scfg)

	atk := &dolevyao.Attacker{S2C: func(n int, payload []byte) ([][]byte, bool) {
		if n != 0 || len(payload) <= resumeSConfirmAt || payload[0] != hsResumeS {
			return nil, false
		}
		mut := append([]byte(nil), payload...)
		mut[resumeSConfirmAt] ^= 0x01
		return [][]byte{mut}, true
	}}
	a, b := net.Pipe()
	cRaw, sRaw := atk.Intercept("attest-server:1", a, b)
	defer cRaw.Close()
	defer sRaw.Close()
	serr := make(chan error, 1)
	go func() {
		s, err := Server(sRaw, scfg)
		if err == nil {
			s.Close()
		}
		serr <- err
	}()
	if c, err := Client(cRaw, ccfg); err == nil {
		c.Close()
		t.Fatal("client accepted a tampered resume confirm")
	}
	<-serr
	if frames := atk.Observed(); len(frames) < 2 || frames[1].Payload[0] != hsResumeS {
		t.Fatalf("the attacker did not see a resumption: %v", frames)
	}
}
