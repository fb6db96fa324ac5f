// Session resumption: a server-issued, single-use ticket lets a returning
// client rekey from the prior session's resumption master secret (rms)
// with symmetric crypto only — no X25519, no Ed25519 — following the
// attested-TLS resumption model. The hot path this exists for is the
// periodic engine re-attesting the same cloud server every tick.
//
// Protocol (typed handshake frames, same framing as the full handshake):
//
//	C→S  resume_c: ticketID, blob, nonceC, binder
//	S→C  resume_s: status, nonceS, confirm, ticketID', blob', expiry'
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
// undecryptable, bad binder) sends status 0 and both sides fall back to
// the full handshake on the same connection — an attacker who tampers
// with tickets can only force the asymmetric path, never downgrade
// authentication.
package secchan

import (
	"crypto/cipher"
	"crypto/ed25519"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"cloudmonatt/internal/cryptoutil"
)

// DefaultTicketLifetime bounds how long a resumption ticket stays
// redeemable. Ten minutes spans many periodic-attestation ticks while
// keeping the window in which a stolen server ticket key matters short.
const DefaultTicketLifetime = 10 * time.Minute

// Ticket is the client's share of one resumption opportunity: the
// server's opaque sealed state plus the secrets the client derived itself.
type Ticket struct {
	ID      cryptoutil.Nonce  // public single-use identifier (AAD of Blob)
	Blob    []byte            // server state sealed under the keeper key
	Peer    string            // server name learned in the full handshake
	PeerKey ed25519.PublicKey // server identity key learned then
	RMS     [32]byte          // resumption master secret
	Expiry  time.Time         // advisory: client skips resumption after this
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

// storeIssued parses a ticket frame received at the end of a full
// handshake and caches it. An empty frame (server without a keeper)
// stores nothing.
func (s *SessionCache) storeIssued(key, peer string, peerKey ed25519.PublicKey, rms [32]byte, payload []byte) {
	id, blob, expiry, ok := parseTicketPayload(payload)
	if !ok {
		return
	}
	s.put(key, &Ticket{ID: id, Blob: blob, Peer: peer, PeerKey: peerKey, RMS: rms, Expiry: expiry})
}

// TicketKeeper is the server side of resumption: it seals session state
// into tickets and redeems them, keeping only an AEAD key and a bounded
// replay ring — no per-client state.
type TicketKeeper struct {
	mu       sync.Mutex
	aead     cipher.AEAD
	lifetime time.Duration
	replay   *cryptoutil.ReplayCache
	rand     io.Reader
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
		rand:     rand.Reader,
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
	r := k.rand
	if r == nil {
		r = rand.Reader
	}
	if _, err := io.ReadFull(r, key); err != nil {
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

// issue seals (name, key, rms, expiry) into a new single-use ticket.
func (k *TicketKeeper) issue(name string, key ed25519.PublicKey, rms [32]byte) (id cryptoutil.Nonce, blob []byte, expiry time.Time, err error) {
	id, err = cryptoutil.NewNonce(k.rand)
	if err != nil {
		return id, nil, time.Time{}, err
	}
	expiry = k.now().Add(k.lifetime)
	var exp [8]byte
	binary.BigEndian.PutUint64(exp[:], uint64(expiry.UnixNano()))
	state := packFields([]byte(name), key, rms[:], exp[:])
	gcmNonce := make([]byte, 12)
	if _, err := io.ReadFull(k.rand, gcmNonce); err != nil {
		return id, nil, time.Time{}, err
	}
	k.mu.Lock()
	aead := k.aead
	k.mu.Unlock()
	blob = aead.Seal(gcmNonce, gcmNonce, state, id[:])
	return id, blob, expiry, nil
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
	fs, err := unpackFields(state, 4)
	if err != nil {
		return "", nil, rms, err
	}
	if len(fs[2]) != len(rms) || len(fs[3]) != 8 {
		return "", nil, rms, errors.New("secchan: malformed ticket state")
	}
	expiry := time.Unix(0, int64(binary.BigEndian.Uint64(fs[3])))
	if k.now().After(expiry) {
		return "", nil, rms, errors.New("secchan: ticket expired")
	}
	copy(rms[:], fs[2])
	return string(fs[0]), ed25519.PublicKey(append([]byte(nil), fs[1]...)), rms, nil
}

// consume marks a ticket ID used, reporting false on replay.
func (k *TicketKeeper) consume(id cryptoutil.Nonce) bool { return k.replay.Check(id) }

// issueTicketPayload builds the hsTicket frame body for a client that
// requested a ticket: a real ticket when the server keeps them, an empty
// one otherwise.
func issueTicketPayload(cfg Config, name string, key ed25519.PublicKey, rms [32]byte) []byte {
	if cfg.Tickets == nil {
		return packFields(nil, nil, nil)
	}
	id, blob, expiry, err := cfg.Tickets.issue(name, key, rms)
	if err != nil {
		return packFields(nil, nil, nil)
	}
	var exp [8]byte
	binary.BigEndian.PutUint64(exp[:], uint64(expiry.UnixNano()))
	return packFields(id[:], blob, exp[:])
}

// parseTicketPayload inverts issueTicketPayload; ok is false for the
// empty (no keeper) form or any malformed payload.
func parseTicketPayload(payload []byte) (id cryptoutil.Nonce, blob []byte, expiry time.Time, ok bool) {
	fs, err := unpackFields(payload, 3)
	if err != nil || len(fs[0]) != len(id) || len(fs[1]) == 0 || len(fs[2]) != 8 {
		return id, nil, time.Time{}, false
	}
	copy(id[:], fs[0])
	return id, fs[1], time.Unix(0, int64(binary.BigEndian.Uint64(fs[2]))), true
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
	binder := resumeBinder(tk.RMS, tk.ID, nonceC)
	msg := packFields(tk.ID[:], tk.Blob, nonceC[:], binder[:])
	if err := writeHS(conn, hsResumeC, msg); err != nil {
		return nil, false, fmt.Errorf("secchan: sending resume: %w", err)
	}
	body, err := expectHS(conn, hsResumeS)
	if err != nil {
		return nil, false, fmt.Errorf("secchan: reading resume reply: %w", err)
	}
	fs, err := unpackFields(body, 6)
	if err != nil {
		return nil, false, err
	}
	if len(fs[0]) != 1 || fs[0][0] != 1 {
		return nil, true, nil // rejected: fall back to the full handshake
	}
	var nonceS cryptoutil.Nonce
	if len(fs[1]) != len(nonceS) {
		return nil, false, errors.New("secchan: resume nonce field malformed")
	}
	copy(nonceS[:], fs[1])
	trans := resumeTranscript(cfg.Identity.Name, tk.Peer, tk.ID, nonceC, nonceS)
	confirm := resumeConfirm(tk.RMS, trans)
	if !cryptoutil.ConstEqual(fs[2], confirm[:]) {
		return nil, false, errors.New("secchan: resume confirmation invalid")
	}
	rms2 := nextRMS(tk.RMS, trans)
	if id2, blob2, exp2, ok := parseTicketPayloadFields(fs[3], fs[4], fs[5]); ok {
		cfg.Session.put(cfg.ResumeTo, &Ticket{ID: id2, Blob: blob2, Peer: tk.Peer, PeerKey: tk.PeerKey, RMS: rms2, Expiry: exp2})
	}
	kc, ks := resumeKeys(tk.RMS, trans)
	c, err = newConn(conn, tk.Peer, tk.PeerKey, kc, ks, true)
	return c, false, err
}

func parseTicketPayloadFields(idF, blobF, expF []byte) (id cryptoutil.Nonce, blob []byte, expiry time.Time, ok bool) {
	if len(idF) != len(id) || len(blobF) == 0 || len(expF) != 8 {
		return id, nil, time.Time{}, false
	}
	copy(id[:], idF)
	return id, blobF, time.Unix(0, int64(binary.BigEndian.Uint64(expF))), true
}

// --- server side ---

// serverResume handles an hsResumeC opening frame. On success it returns
// the established Conn. On any reject it sends the reject frame, waits for
// the client's full hello on the same connection, and returns its body
// (nil Conn) so Server can fall back to the full handshake.
func serverResume(conn net.Conn, cfg Config, body []byte) (*Conn, []byte, error) {
	reject := func() (*Conn, []byte, error) {
		if err := writeHS(conn, hsResumeS, packFields([]byte{0}, nil, nil, nil, nil, nil)); err != nil {
			return nil, nil, fmt.Errorf("secchan: sending resume reject: %w", err)
		}
		helloBody, err := expectHS(conn, hsHelloC)
		if err != nil {
			return nil, nil, fmt.Errorf("secchan: reading hello after resume reject: %w", err)
		}
		return nil, helloBody, nil
	}
	fs, err := unpackFields(body, 4)
	if err != nil {
		return nil, nil, err
	}
	var id, nonceC cryptoutil.Nonce
	if cfg.Tickets == nil || len(fs[0]) != len(id) || len(fs[2]) != len(nonceC) {
		return reject()
	}
	copy(id[:], fs[0])
	copy(nonceC[:], fs[2])
	name, clientKey, rms, err := cfg.Tickets.redeem(id, fs[1])
	if err != nil {
		return reject()
	}
	// Re-check the registry binding so revoking a peer also kills its
	// tickets (a map lookup and constant-time compare, not asymmetric).
	if err := cfg.Verify(name, clientKey); err != nil {
		return reject()
	}
	binder := resumeBinder(rms, id, nonceC)
	if !cryptoutil.ConstEqual(fs[3], binder[:]) {
		return reject()
	}
	if !cfg.Tickets.consume(id) {
		return reject()
	}
	nonceS, err := cryptoutil.NewNonce(cfg.rand())
	if err != nil {
		return nil, nil, err
	}
	trans := resumeTranscript(name, cfg.Identity.Name, id, nonceC, nonceS)
	confirm := resumeConfirm(rms, trans)
	rms2 := nextRMS(rms, trans)
	ticket := issueTicketPayload(cfg, name, clientKey, rms2)
	tfs, err := unpackFields(ticket, 3)
	if err != nil {
		return nil, nil, err
	}
	accept := packFields([]byte{1}, nonceS[:], confirm[:], tfs[0], tfs[1], tfs[2])
	if err := writeHS(conn, hsResumeS, accept); err != nil {
		return nil, nil, fmt.Errorf("secchan: sending resume accept: %w", err)
	}
	kc, ks := resumeKeys(rms, trans)
	c, err := newConn(conn, name, clientKey, ks, kc, true)
	return c, nil, err
}
