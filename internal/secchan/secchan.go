// Package secchan provides the SSL-like secure channel CloudMonatt expects
// between its entities (paper §3.4.1): mutual authentication from long-term
// Ed25519 identity keys, an X25519 ephemeral key exchange yielding the
// per-hop symmetric session keys (Kx, Ky, Kz in Fig. 3), and an
// AES-256-GCM record layer with counter nonces that rejects replayed,
// reordered or tampered records.
//
// The full handshake (typed frames over a length-delimited transport):
//
//	C→S  hello_c:  nameC, ephC, nonceC, flags
//	S→C  hello_s:  nameS, ephS, nonceS, sig_S(transcript)
//	C→S  finish_c: sig_C(transcript)
//	S→C  ticket:   resumption ticket (only when hello_c requested one)
//
// where transcript = H(nameC‖nameS‖ephC‖ephS‖nonceC‖nonceS). Both sides
// verify the peer's signature under the public key their identity registry
// expects for the peer's claimed name, then derive directional AES keys
// from the ECDH secret and the transcript. The ephemerals are
// cryptoutil.Ephemeral keys, drawn from Config.Rand and nothing else, so a
// fixed Rand on both sides repeats a full handshake byte for byte.
//
// Session resumption (resume.go) lets a client that holds a ticket from a
// prior session rekey with symmetric crypto only — no X25519, no Ed25519 —
// which is what makes high-frequency periodic re-attestation of the same
// cloud server cheap.
package secchan

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"cloudmonatt/internal/cryptoutil"
)

// maxFrame bounds a single authenticated record to keep a malicious peer
// from forcing huge allocations.
const maxFrame = 1 << 22 // 4 MiB

// maxHandshakeFrame bounds frames read before the peer has authenticated.
// Every handshake message (hellos, finish, tickets, resume exchange) fits
// in well under a kilobyte, so the unauthenticated surface never gets to
// size a buffer beyond this.
const maxHandshakeFrame = 4096

// ErrSequenceExhausted reports a connection that has sent or received
// 2^64-1 records: the next record would reuse a GCM nonce, so the channel
// fails closed and must be re-established.
var ErrSequenceExhausted = errors.New("secchan: record sequence exhausted; channel must be re-established")

// seqMax is the sentinel sequence value at which the channel poisons
// itself rather than wrap the counter nonce.
const seqMax = ^uint64(0)

// VerifyPeer checks that the peer's claimed name is bound to the presented
// identity key (the caller's trust registry / certificate store).
type VerifyPeer func(name string, key ed25519.PublicKey) error

// Config configures one endpoint of a secure channel.
type Config struct {
	Identity *cryptoutil.Identity
	Verify   VerifyPeer
	// Rand supplies handshake entropy; crypto/rand when nil.
	Rand io.Reader

	// Tickets, on a server, issues and redeems resumption tickets. Nil
	// disables resumption (clients requesting a ticket get an empty one).
	Tickets *TicketKeeper
	// Session, on a client, caches resumption tickets across connections.
	// Nil disables resumption.
	Session *SessionCache
	// ResumeTo keys this connection's ticket in Session (the dial address;
	// set by the rpc layer). Resumption needs both Session and ResumeTo.
	ResumeTo string
}

func (c Config) rand() io.Reader {
	if c.Rand != nil {
		return c.Rand
	}
	return rand.Reader
}

func (c Config) wantsResume() bool { return c.Session != nil && c.ResumeTo != "" }

// Conn is an established secure channel. It is message oriented: WriteMsg
// sends one authenticated-encrypted record, ReadMsg receives one. A Conn
// supports one concurrent reader plus one concurrent writer (the rpc layer
// serializes further).
type Conn struct {
	raw      net.Conn
	peer     string
	peerKey  ed25519.PublicKey
	resumed  bool
	sendAEAD cipher.AEAD
	recvAEAD cipher.AEAD
	sendSeq  uint64
	recvSeq  uint64
	sendErr  error
	recvErr  error
	sendBuf  []byte // reused frame build buffer (header + sealed record)
	recvBuf  []byte // reused record read buffer; ReadMsg returns views of it
	// Per-direction scratch the AEAD and the transport are handed slices
	// of. On the stack they would escape through those interfaces, costing
	// an allocation per record; one reader and one writer at a time may
	// share a Conn, so each direction owns its own.
	sendNonce [12]byte
	recvNonce [12]byte
	recvHdr   [4]byte
}

func newConn(raw net.Conn, peer string, peerKey ed25519.PublicKey, sendKey, recvKey []byte, resumed bool) (*Conn, error) {
	send, err := newAEAD(sendKey)
	if err != nil {
		return nil, err
	}
	recv, err := newAEAD(recvKey)
	if err != nil {
		return nil, err
	}
	return &Conn{raw: raw, peer: peer, peerKey: peerKey, sendAEAD: send, recvAEAD: recv, resumed: resumed}, nil
}

// PeerName returns the authenticated name of the remote endpoint.
func (c *Conn) PeerName() string { return c.peer }

// PeerKey returns the remote endpoint's verified identity key.
func (c *Conn) PeerKey() ed25519.PublicKey { return c.peerKey }

// Resumed reports whether this channel was established by ticket
// resumption rather than a full handshake.
func (c *Conn) Resumed() bool { return c.resumed }

// Close closes the underlying transport.
func (c *Conn) Close() error { return c.raw.Close() }

// SetDeadline bounds future reads and writes on the underlying transport.
// A record interrupted by an expired deadline leaves the channel desynced
// (torn frame, unadvanced AEAD sequence); callers must discard the
// connection rather than reuse it.
func (c *Conn) SetDeadline(t time.Time) error { return c.raw.SetDeadline(t) }

// SetReadDeadline bounds future reads on the underlying transport.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.raw.SetReadDeadline(t) }

// SetWriteDeadline bounds future writes on the underlying transport.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.raw.SetWriteDeadline(t) }

// --- raw framing (pre-encryption transport) ---

// writeFrame sends one length-delimited frame as a single Write.
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

// readFrame reads one length-delimited frame of at most limit bytes. The
// limit is the caller's authentication state: handshake reads pass
// maxHandshakeFrame so an unauthenticated peer's length header can never
// size a large allocation; only authenticated record reads use maxFrame.
func readFrame(r io.Reader, limit int) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if int64(n) > int64(limit) {
		return nil, fmt.Errorf("secchan: oversized frame (%d bytes, limit %d)", n, limit)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// --- handshake ---

// Handshake frame types: the first payload byte of every pre-record frame.
const (
	hsHelloC  byte = 1
	hsHelloS  byte = 2
	hsFinishC byte = 3
	hsTicket  byte = 4
	hsResumeC byte = 5
	hsResumeS byte = 6
)

func writeHS(w io.Writer, typ byte, payload []byte) error {
	buf := make([]byte, 1+len(payload))
	buf[0] = typ
	copy(buf[1:], payload)
	return writeFrame(w, buf)
}

func readHS(r io.Reader) (byte, []byte, error) {
	b, err := readFrame(r, maxHandshakeFrame)
	if err != nil {
		return 0, nil, err
	}
	if len(b) < 1 {
		return 0, nil, errors.New("secchan: empty handshake frame")
	}
	return b[0], b[1:], nil
}

func expectHS(r io.Reader, typ byte) ([]byte, error) {
	got, body, err := readHS(r)
	if err != nil {
		return nil, err
	}
	if got != typ {
		return nil, fmt.Errorf("secchan: unexpected handshake frame type %d (want %d)", got, typ)
	}
	return body, nil
}

// helloC flag bits.
const flagWantTicket = 1 << 0

type helloC struct {
	Name  string
	Eph   []byte
	Nonce cryptoutil.Nonce
	Flags uint32
}

type helloS struct {
	Name  string
	Eph   []byte
	Nonce cryptoutil.Nonce
	Key   []byte // server identity public key (verified against registry)
	Sig   []byte
}

type finishC struct {
	Key []byte // client identity public key
	Sig []byte
}

func transcript(nameC, nameS string, ephC, ephS []byte, nC, nS cryptoutil.Nonce) []byte {
	sum := cryptoutil.Hash("secchan-hs", []byte(nameC), []byte(nameS), ephC, ephS, nC[:], nS[:])
	return sum[:]
}

// deriveKeys expands the ECDH secret into two directional AES-256 keys.
func deriveKeys(secret, trans []byte) (c2s, s2c []byte) {
	kc := sha256.Sum256(append(append([]byte("c2s|"), secret...), trans...))
	ks := sha256.Sum256(append(append([]byte("s2c|"), secret...), trans...))
	return kc[:], ks[:]
}

// deriveRMS derives the resumption master secret both sides remember after
// a full handshake; tickets and resumed-session keys are rooted in it.
func deriveRMS(secret, trans []byte) [32]byte {
	return cryptoutil.Hash("secchan-rms", secret, trans)
}

func newAEAD(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// encode/decode for handshake structs: simple length-prefixed fields (no
// reflection, injective). Decoders are strict about fixed-width fields —
// a nonce field of the wrong length is rejected, never zero-padded or
// truncated, so pack∘unpack stays the identity on valid messages.
func encodeHelloC(h helloC) []byte {
	var flags [4]byte
	binary.BigEndian.PutUint32(flags[:], h.Flags)
	return packFields([]byte(h.Name), h.Eph, h.Nonce[:], flags[:])
}

func decodeHelloC(b []byte) (helloC, error) {
	fs, err := unpackFields(b, 4)
	if err != nil {
		return helloC{}, err
	}
	var h helloC
	h.Name = string(fs[0])
	h.Eph = fs[1]
	if len(fs[2]) != len(h.Nonce) {
		return helloC{}, fmt.Errorf("secchan: hello nonce field is %d bytes, want %d", len(fs[2]), len(h.Nonce))
	}
	copy(h.Nonce[:], fs[2])
	if len(fs[3]) != 4 {
		return helloC{}, fmt.Errorf("secchan: hello flags field is %d bytes, want 4", len(fs[3]))
	}
	h.Flags = binary.BigEndian.Uint32(fs[3])
	return h, nil
}

func encodeHelloS(h helloS) []byte {
	return packFields([]byte(h.Name), h.Eph, h.Nonce[:], h.Key, h.Sig)
}

func decodeHelloS(b []byte) (helloS, error) {
	fs, err := unpackFields(b, 5)
	if err != nil {
		return helloS{}, err
	}
	var h helloS
	h.Name = string(fs[0])
	h.Eph = fs[1]
	if len(fs[2]) != len(h.Nonce) {
		return helloS{}, fmt.Errorf("secchan: hello nonce field is %d bytes, want %d", len(fs[2]), len(h.Nonce))
	}
	copy(h.Nonce[:], fs[2])
	h.Key = fs[3]
	h.Sig = fs[4]
	return h, nil
}

func encodeFinishC(f finishC) []byte { return packFields(f.Key, f.Sig) }

func decodeFinishC(b []byte) (finishC, error) {
	fs, err := unpackFields(b, 2)
	if err != nil {
		return finishC{}, err
	}
	return finishC{Key: fs[0], Sig: fs[1]}, nil
}

func packFields(fields ...[]byte) []byte {
	var out []byte
	for _, f := range fields {
		out = binary.BigEndian.AppendUint32(out, uint32(len(f)))
		out = append(out, f...)
	}
	return out
}

func unpackFields(b []byte, n int) ([][]byte, error) {
	out := make([][]byte, 0, n)
	for len(out) < n {
		if len(b) < 4 {
			return nil, errors.New("secchan: truncated handshake message")
		}
		l := binary.BigEndian.Uint32(b[:4])
		b = b[4:]
		if uint32(len(b)) < l {
			return nil, errors.New("secchan: truncated handshake field")
		}
		out = append(out, b[:l])
		b = b[l:]
	}
	if len(b) != 0 {
		return nil, errors.New("secchan: trailing handshake bytes")
	}
	return out, nil
}

// Client performs the initiator handshake over conn. When the config
// carries a session cache with a live ticket for ResumeTo, it first
// attempts resumption; a server-side reject falls back to the full
// handshake on the same connection (and drops the ticket).
func Client(conn net.Conn, cfg Config) (*Conn, error) {
	if cfg.Identity == nil || cfg.Verify == nil {
		return nil, errors.New("secchan: config needs identity and verifier")
	}
	if cfg.wantsResume() {
		if tk := cfg.Session.take(cfg.ResumeTo); tk != nil {
			c, retryFull, err := clientResume(conn, cfg, tk)
			if err != nil {
				return nil, err
			}
			if !retryFull {
				return c, nil
			}
		}
	}
	return clientFull(conn, cfg)
}

func clientFull(conn net.Conn, cfg Config) (*Conn, error) {
	eph, err := cryptoutil.NewEphemeral(cfg.rand())
	if err != nil {
		return nil, err
	}
	nonceC, err := cryptoutil.NewNonce(cfg.rand())
	if err != nil {
		return nil, err
	}
	hc := helloC{Name: cfg.Identity.Name, Eph: eph.Public(), Nonce: nonceC}
	if cfg.wantsResume() {
		hc.Flags |= flagWantTicket
	}
	if err := writeHS(conn, hsHelloC, encodeHelloC(hc)); err != nil {
		return nil, fmt.Errorf("secchan: sending hello: %w", err)
	}
	raw, err := expectHS(conn, hsHelloS)
	if err != nil {
		return nil, fmt.Errorf("secchan: reading server hello: %w", err)
	}
	hs, err := decodeHelloS(raw)
	if err != nil {
		return nil, err
	}
	serverKey := ed25519.PublicKey(hs.Key)
	if err := cfg.Verify(hs.Name, serverKey); err != nil {
		return nil, fmt.Errorf("secchan: rejecting server %q: %w", hs.Name, err)
	}
	trans := transcript(hc.Name, hs.Name, hc.Eph, hs.Eph, hc.Nonce, hs.Nonce)
	if !cryptoutil.Verify(serverKey, append([]byte("server|"), trans...), hs.Sig) {
		return nil, errors.New("secchan: server handshake signature invalid")
	}
	secret, err := eph.ECDH(hs.Eph)
	if err != nil {
		return nil, fmt.Errorf("secchan: bad server ephemeral: %w", err)
	}
	fin := finishC{
		Key: cfg.Identity.Public(),
		Sig: cfg.Identity.Sign(append([]byte("client|"), trans...)),
	}
	if err := writeHS(conn, hsFinishC, encodeFinishC(fin)); err != nil {
		return nil, fmt.Errorf("secchan: sending finish: %w", err)
	}
	if hc.Flags&flagWantTicket != 0 {
		raw, err := expectHS(conn, hsTicket)
		if err != nil {
			return nil, fmt.Errorf("secchan: reading ticket: %w", err)
		}
		rms := deriveRMS(secret[:], trans)
		cfg.Session.storeIssued(cfg.ResumeTo, hs.Name, serverKey, rms, raw)
	}
	kc, ks := deriveKeys(secret[:], trans)
	return newConn(conn, hs.Name, serverKey, kc, ks, false)
}

// Server performs the responder handshake over conn. A client opening
// with a resumption attempt is served symmetrically when its ticket checks
// out; otherwise the server rejects the attempt and falls back to the full
// handshake on the same connection.
func Server(conn net.Conn, cfg Config) (*Conn, error) {
	if cfg.Identity == nil || cfg.Verify == nil {
		return nil, errors.New("secchan: config needs identity and verifier")
	}
	typ, body, err := readHS(conn)
	if err != nil {
		return nil, fmt.Errorf("secchan: reading client hello: %w", err)
	}
	if typ == hsResumeC {
		c, helloBody, err := serverResume(conn, cfg, body)
		if err != nil {
			return nil, err
		}
		if c != nil {
			return c, nil
		}
		// Resume rejected: the client re-opens with a full hello.
		body = helloBody
	} else if typ != hsHelloC {
		return nil, fmt.Errorf("secchan: unexpected handshake frame type %d", typ)
	}
	return serverFull(conn, cfg, body)
}

func serverFull(conn net.Conn, cfg Config, helloBody []byte) (*Conn, error) {
	hc, err := decodeHelloC(helloBody)
	if err != nil {
		return nil, err
	}
	eph, err := cryptoutil.NewEphemeral(cfg.rand())
	if err != nil {
		return nil, err
	}
	nonceS, err := cryptoutil.NewNonce(cfg.rand())
	if err != nil {
		return nil, err
	}
	trans := transcript(hc.Name, cfg.Identity.Name, hc.Eph, eph.Public(), hc.Nonce, nonceS)
	hs := helloS{
		Name:  cfg.Identity.Name,
		Eph:   eph.Public(),
		Nonce: nonceS,
		Key:   cfg.Identity.Public(),
		Sig:   cfg.Identity.Sign(append([]byte("server|"), trans...)),
	}
	if err := writeHS(conn, hsHelloS, encodeHelloS(hs)); err != nil {
		return nil, fmt.Errorf("secchan: sending server hello: %w", err)
	}
	raw, err := expectHS(conn, hsFinishC)
	if err != nil {
		return nil, fmt.Errorf("secchan: reading client finish: %w", err)
	}
	fin, err := decodeFinishC(raw)
	if err != nil {
		return nil, err
	}
	clientKey := ed25519.PublicKey(fin.Key)
	if err := cfg.Verify(hc.Name, clientKey); err != nil {
		return nil, fmt.Errorf("secchan: rejecting client %q: %w", hc.Name, err)
	}
	if !cryptoutil.Verify(clientKey, append([]byte("client|"), trans...), fin.Sig) {
		return nil, errors.New("secchan: client handshake signature invalid")
	}
	secret, err := eph.ECDH(hc.Eph)
	if err != nil {
		return nil, fmt.Errorf("secchan: bad client ephemeral: %w", err)
	}
	if hc.Flags&flagWantTicket != 0 {
		rms := deriveRMS(secret[:], trans)
		ticket := issueTicketPayload(cfg, hc.Name, clientKey, rms)
		if err := writeHS(conn, hsTicket, ticket); err != nil {
			return nil, fmt.Errorf("secchan: sending ticket: %w", err)
		}
	}
	kc, ks := deriveKeys(secret[:], trans)
	return newConn(conn, hc.Name, clientKey, ks, kc, false)
}

// --- record layer ---

// WriteMsg encrypts and sends one record as a single frame write. The
// sequence number is the GCM nonce, so replayed or reordered records fail
// authentication on receive; when the sequence space is exhausted the
// channel fails closed (ErrSequenceExhausted) instead of reusing a nonce.
func (c *Conn) WriteMsg(payload []byte) error {
	if c.sendErr != nil {
		return c.sendErr
	}
	if c.sendSeq == seqMax {
		c.sendErr = ErrSequenceExhausted
		return c.sendErr
	}
	if len(payload)+c.sendAEAD.Overhead() > maxFrame {
		return fmt.Errorf("secchan: frame of %d bytes exceeds limit", len(payload))
	}
	binary.BigEndian.PutUint64(c.sendNonce[4:], c.sendSeq)
	c.sendSeq++
	b := append(c.sendBuf[:0], 0, 0, 0, 0)
	b = c.sendAEAD.Seal(b, c.sendNonce[:], payload, nil)
	c.sendBuf = b[:0] // keep the (possibly grown) buffer for reuse
	binary.BigEndian.PutUint32(b[:4], uint32(len(b)-4))
	_, err := c.raw.Write(b)
	return err
}

// ReadMsg receives and decrypts one record. The returned slice aliases the
// connection's reusable record buffer: it is valid until the next ReadMsg
// on this Conn, which is exactly the lifetime the rpc dispatch loop needs;
// callers that retain a record across reads must copy it.
func (c *Conn) ReadMsg() ([]byte, error) {
	if c.recvErr != nil {
		return nil, c.recvErr
	}
	if _, err := io.ReadFull(c.raw, c.recvHdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(c.recvHdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("secchan: oversized frame (%d bytes)", n)
	}
	if cap(c.recvBuf) < int(n) {
		c.recvBuf = make([]byte, n)
	}
	sealed := c.recvBuf[:n]
	if _, err := io.ReadFull(c.raw, sealed); err != nil {
		return nil, err
	}
	if c.recvSeq == seqMax {
		c.recvErr = ErrSequenceExhausted
		return nil, c.recvErr
	}
	binary.BigEndian.PutUint64(c.recvNonce[4:], c.recvSeq)
	c.recvSeq++
	plain, err := c.recvAEAD.Open(sealed[:0], c.recvNonce[:], sealed, nil)
	if err != nil {
		return nil, fmt.Errorf("secchan: record authentication failed (tampering or replay): %w", err)
	}
	return plain, nil
}
