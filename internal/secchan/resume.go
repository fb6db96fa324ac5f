// Session resumption: a server-issued, single-use ticket lets a returning
// client rekey from the prior session's resumption master secret (rms)
// with symmetric crypto only — no X25519, no Ed25519 — following the
// attested-TLS resumption model. The hot path this exists for is the
// periodic engine re-attesting the same cloud server every tick.
//
// Protocol (typed handshake frames, same framing as the full handshake):
//
//	C→S  resume_c: ticketID Fixed, blob Bytes, nonceC Fixed, binder Fixed
//	S→C  resume_s: accept Bool, then nonceS Fixed, confirm Fixed and a ticket field on accept
//	ticket field:  follows Bool, then ticketID Fixed, blob Bytes, expiry Uint64 if it does
//
// The blob is the server's own state — peer name, peer key, rms, expiry —
// sealed under the TicketKeeper's AEAD key with the ticket ID as
// associated data, so the server keeps no per-client state. The binder
// proves the client knows rms (it is derived only inside the prior
// authenticated handshake); the confirm proves the server does. Session
// keys and the next rms are derived from rms and the resume transcript
// (both nonces), so each resumption rekeys and re-tickets: tickets are
// single-use (a bounded replay ring consumes IDs), expire after the
// keeper's lifetime, and all die together when the keeper key rotates.
//
// Failure is always soft: any reject (no keeper, expired, replayed,
// undecryptable, bad binder) sends accept false and both sides fall back to
// the full handshake on the same connection — an attacker who tampers
// with tickets can only force the asymmetric path, never downgrade
// authentication.
package secchan

import (
	"crypto/cipher"
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"cloudmonatt/internal/binenc"
	"cloudmonatt/internal/cryptoutil"
)

// DefaultTicketLifetime bounds how long a resumption ticket stays
// redeemable. Ten minutes spans many periodic-attestation ticks while
// keeping the window in which a stolen server ticket key matters short.
const DefaultTicketLifetime = 10 * time.Minute

// Ticket is the client's share of one resumption opportunity: the
// server's opaque sealed state plus the secrets the client derived itself.
// The server hands over ID, Blob and Expiry; the client fills in the rest.
type Ticket struct {
	ID     cryptoutil.Nonce // public single-use identifier (AAD of Blob)
	Blob   []byte           // server state sealed under the keeper key
	Peer   string           // server name learned in the full handshake
	RMS    [32]byte         // resumption master secret
	Expiry time.Time        // advisory: client skips resumption after this
}

// SessionCache holds each client's latest ticket per dial target. Take
// removes the ticket it returns — tickets are single-use, so a concurrent
// dial never replays one.
type SessionCache struct {
	mu sync.Mutex
	m  map[string]*Ticket
}

// NewSessionCache creates an empty client-side ticket cache.
func NewSessionCache() *SessionCache {
	return &SessionCache{m: make(map[string]*Ticket)}
}

// take removes and returns the ticket for key, or nil if none is cached or
// the cached one has expired.
func (s *SessionCache) take(key string) *Ticket {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.m[key]
	if t == nil {
		return nil
	}
	delete(s.m, key)
	//lint:ignore vclockonly ticket expiry is real wall-clock time by protocol design
	if !t.Expiry.IsZero() && time.Now().After(t.Expiry) {
		return nil
	}
	return t
}

// put stores t as the ticket for key.
func (s *SessionCache) put(key string, t *Ticket) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = t
}

// Len reports how many targets currently have a cached ticket.
func (s *SessionCache) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// storeIssued caches a ticket the server issued, beside the secrets the
// client derived itself. A server that issued none stores nothing.
func (s *SessionCache) storeIssued(key, peer string, rms [32]byte, t *Ticket) {
	if t != nil {
		t.Peer, t.RMS = peer, rms
		s.put(key, t)
	}
}

// TicketKeeper is the server side of resumption: it seals session state
// into tickets and redeems them, keeping only an AEAD key and a bounded
// replay ring — no per-client state.
type TicketKeeper struct {
	mu       sync.Mutex
	aead     cipher.AEAD
	lifetime time.Duration
	replay   *cryptoutil.ReplayCache
	// now is the keeper's clock; wall clock in production, swappable in
	// tests driving expiry.
	now func() time.Time
}

// NewTicketKeeper creates a keeper with a fresh random ticket key. A
// non-positive lifetime selects DefaultTicketLifetime.
func NewTicketKeeper(lifetime time.Duration) (*TicketKeeper, error) {
	if lifetime <= 0 {
		lifetime = DefaultTicketLifetime
	}
	k := &TicketKeeper{
		lifetime: lifetime,
		replay:   cryptoutil.NewReplayCache(4096),
		now:      time.Now,
	}
	if err := k.Rotate(); err != nil {
		return nil, err
	}
	return k, nil
}

// Rotate replaces the ticket key, invalidating every outstanding ticket.
func (k *TicketKeeper) Rotate() error {
	key := make([]byte, 32)
	if _, err := io.ReadFull(rand.Reader, key); err != nil {
		return err
	}
	aead, err := newAEAD(key)
	if err != nil {
		return err
	}
	k.mu.Lock()
	k.aead = aead
	k.mu.Unlock()
	return nil
}

// issue seals (name, key, rms, expiry) into a new single-use ticket. A
// nil keeper, or one that cannot draw a ticket's randomness, issues none.
func (k *TicketKeeper) issue(name string, key ed25519.PublicKey, rms [32]byte) *Ticket {
	if k == nil {
		return nil
	}
	id, err := cryptoutil.NewNonce(rand.Reader)
	if err != nil {
		return nil
	}
	expiry := k.now().Add(k.lifetime)
	// The blob is a GCM nonce, then the state sealed in place behind it
	// with its tag; the capacity holds both for a short name.
	blob := make([]byte, 12, 128+len(name))
	if _, err := io.ReadFull(rand.Reader, blob); err != nil {
		return nil
	}
	blob = binenc.AppendString(blob, name)
	blob = binenc.AppendBytes(blob, key)
	blob = append(blob, rms[:]...)
	blob = binenc.AppendUint64(blob, uint64(expiry.UnixNano()))
	k.mu.Lock()
	aead := k.aead
	k.mu.Unlock()
	blob = aead.Seal(blob[:12], blob[:12], blob[12:], id[:])
	return &Ticket{ID: id, Blob: blob, Expiry: expiry}
}

// redeem opens a ticket blob and returns the sealed session state. It does
// not consume the ticket ID; consume is called only after the client's
// binder proves possession of the rms, so junk resume attempts cannot burn
// a legitimate client's single use.
func (k *TicketKeeper) redeem(id cryptoutil.Nonce, blob []byte) (name string, key ed25519.PublicKey, rms [32]byte, err error) {
	if len(blob) < 12 {
		return "", nil, rms, errors.New("secchan: ticket blob too short")
	}
	k.mu.Lock()
	aead := k.aead
	k.mu.Unlock()
	state, err := aead.Open(nil, blob[:12], blob[12:], id[:])
	if err != nil {
		return "", nil, rms, fmt.Errorf("secchan: ticket does not decrypt: %w", err)
	}
	rd := binenc.NewReader(state)
	name, key = rd.String(), rd.BytesView()
	rd.Fixed(rms[:])
	expiry := time.Unix(0, int64(rd.Uint64()))
	if err := rd.Done(); err != nil {
		return "", nil, rms, fmt.Errorf("secchan: malformed ticket state: %w", err)
	}
	if k.now().After(expiry) {
		return "", nil, rms, errors.New("secchan: ticket expired")
	}
	return name, key, rms, nil
}

// consume marks a ticket ID used, reporting false on replay.
func (k *TicketKeeper) consume(id cryptoutil.Nonce) bool { return k.replay.Check(id) }

// --- resumption bodies ---

// appendTicket appends a ticket field, which a nil t leaves empty.
func appendTicket(b []byte, t *Ticket) []byte {
	b = binenc.AppendBool(b, t != nil)
	if t == nil {
		return b
	}
	b = append(b, t.ID[:]...)
	b = binenc.AppendBytes(b, t.Blob)
	return binenc.AppendUint64(b, uint64(t.Expiry.UnixNano()))
}

func readTicket(rd *binenc.Reader) *Ticket {
	if !rd.Bool() {
		return nil
	}
	t := new(Ticket)
	rd.Fixed(t.ID[:])
	t.Blob = rd.BytesView()
	t.Expiry = time.Unix(0, int64(rd.Uint64()))
	return t
}

// decodeTicket decodes a ticket frame's body.
func decodeTicket(body []byte) (*Ticket, error) {
	rd := binenc.NewReader(body)
	t := readTicket(&rd)
	return t, rd.Done()
}

type resumeC struct {
	ID     cryptoutil.Nonce
	Blob   []byte
	Nonce  cryptoutil.Nonce
	Binder [32]byte
}

func (m resumeC) appendWire(b []byte) []byte {
	b = append(b, m.ID[:]...)
	b = binenc.AppendBytes(b, m.Blob)
	b = append(b, m.Nonce[:]...)
	return append(b, m.Binder[:]...)
}

func (m *resumeC) decodeWire(body []byte) error {
	rd := binenc.NewReader(body)
	rd.Fixed(m.ID[:])
	m.Blob = rd.BytesView()
	rd.Fixed(m.Nonce[:])
	rd.Fixed(m.Binder[:])
	return rd.Done()
}

type resumeS struct {
	Accept  bool
	Nonce   cryptoutil.Nonce
	Confirm [32]byte
	Ticket  *Ticket
}

func (m resumeS) appendWire(b []byte) []byte {
	b = binenc.AppendBool(b, m.Accept)
	if !m.Accept {
		return b
	}
	b = append(b, m.Nonce[:]...)
	b = append(b, m.Confirm[:]...)
	return appendTicket(b, m.Ticket)
}

func (m *resumeS) decodeWire(body []byte) error {
	rd := binenc.NewReader(body)
	if m.Accept = rd.Bool(); m.Accept {
		rd.Fixed(m.Nonce[:])
		rd.Fixed(m.Confirm[:])
		m.Ticket = readTicket(&rd)
	}
	return rd.Done()
}

// --- resume key schedule ---

func resumeTranscript(clientName, serverName string, id cryptoutil.Nonce, nC, nS cryptoutil.Nonce) [32]byte {
	return cryptoutil.Hash("secchan-resume", []byte(clientName), []byte(serverName), id[:], nC[:], nS[:])
}

func resumeBinder(rms [32]byte, id cryptoutil.Nonce, nC cryptoutil.Nonce) [32]byte {
	return cryptoutil.Hash("secchan-resume-binder", rms[:], id[:], nC[:])
}

func resumeConfirm(rms [32]byte, trans [32]byte) [32]byte {
	return cryptoutil.Hash("secchan-resume-confirm", rms[:], trans[:])
}

func resumeKeys(rms [32]byte, trans [32]byte) (c2s, s2c []byte) {
	kc := cryptoutil.Hash("secchan-resume-c2s", rms[:], trans[:])
	ks := cryptoutil.Hash("secchan-resume-s2c", rms[:], trans[:])
	return kc[:], ks[:]
}

func nextRMS(rms [32]byte, trans [32]byte) [32]byte {
	return cryptoutil.Hash("secchan-rms-next", rms[:], trans[:])
}

// --- client side ---

// clientResume attempts ticket resumption. It returns retryFull=true when
// the server rejected the attempt (the caller falls back to the full
// handshake on the same connection; the ticket is already dropped).
func clientResume(conn net.Conn, cfg Config, tk *Ticket) (c *Conn, retryFull bool, err error) {
	nonceC, err := cryptoutil.NewNonce(cfg.rand())
	if err != nil {
		return nil, false, err
	}
	rc := resumeC{ID: tk.ID, Blob: tk.Blob, Nonce: nonceC, Binder: resumeBinder(tk.RMS, tk.ID, nonceC)}
	if err := sendHS(conn, rc.appendWire(startHS(hsResumeC))); err != nil {
		return nil, false, fmt.Errorf("secchan: sending resume: %w", err)
	}
	body, err := expectHS(conn, hsResumeS)
	var rs resumeS
	if err == nil {
		err = rs.decodeWire(body)
	}
	if err != nil {
		return nil, false, fmt.Errorf("secchan: reading resume reply: %w", err)
	}
	if !rs.Accept {
		return nil, true, nil // rejected: fall back to the full handshake
	}
	trans := resumeTranscript(cfg.Identity.Name, tk.Peer, tk.ID, nonceC, rs.Nonce)
	confirm := resumeConfirm(tk.RMS, trans)
	if !cryptoutil.ConstEqual(rs.Confirm[:], confirm[:]) {
		return nil, false, errors.New("secchan: resume confirmation invalid")
	}
	cfg.Session.storeIssued(cfg.ResumeTo, tk.Peer, nextRMS(tk.RMS, trans), rs.Ticket)
	kc, ks := resumeKeys(tk.RMS, trans)
	c, err = newConn(conn, tk.Peer, kc, ks, true)
	return c, false, err
}

// --- server side ---

// serverResume handles an hsResumeC opening frame. On success it returns
// the established Conn. On any reject it sends the reject frame and
// returns neither a Conn nor an error, and Server falls back to the full
// handshake on the same connection.
func serverResume(conn net.Conn, cfg Config, body []byte) (*Conn, error) {
	reject := func() (*Conn, error) {
		if err := sendHS(conn, resumeS{}.appendWire(startHS(hsResumeS))); err != nil {
			return nil, fmt.Errorf("secchan: sending resume reject: %w", err)
		}
		return nil, nil
	}
	var rc resumeC
	if err := rc.decodeWire(body); err != nil {
		return nil, fmt.Errorf("secchan: reading resume: %w", err)
	}
	if cfg.Tickets == nil {
		return reject()
	}
	name, clientKey, rms, err := cfg.Tickets.redeem(rc.ID, rc.Blob)
	if err != nil {
		return reject()
	}
	// Re-check the registry binding so revoking a peer also kills its
	// tickets (a map lookup and constant-time compare, not asymmetric).
	if err := cfg.Verify(name, clientKey); err != nil {
		return reject()
	}
	binder := resumeBinder(rms, rc.ID, rc.Nonce)
	if !cryptoutil.ConstEqual(rc.Binder[:], binder[:]) {
		return reject()
	}
	if !cfg.Tickets.consume(rc.ID) {
		return reject()
	}
	nonceS, err := cryptoutil.NewNonce(cfg.rand())
	if err != nil {
		return nil, err
	}
	trans := resumeTranscript(name, cfg.Identity.Name, rc.ID, rc.Nonce, nonceS)
	rs := resumeS{
		Accept:  true,
		Nonce:   nonceS,
		Confirm: resumeConfirm(rms, trans),
		Ticket:  cfg.Tickets.issue(name, clientKey, nextRMS(rms, trans)),
	}
	if err := sendHS(conn, rs.appendWire(startHS(hsResumeS))); err != nil {
		return nil, fmt.Errorf("secchan: sending resume accept: %w", err)
	}
	kc, ks := resumeKeys(rms, trans)
	return newConn(conn, name, ks, kc, true)
}
