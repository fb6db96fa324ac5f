// Package secchan provides the SSL-like secure channel CloudMonatt expects
// between its entities (paper §3.4.1): mutual authentication from long-term
// Ed25519 identity keys, an X25519 ephemeral key exchange yielding the
// per-hop symmetric session keys (Kx, Ky, Kz in Fig. 3), and an
// AES-256-GCM record layer with counter nonces that rejects replayed,
// reordered or tampered records.
//
// The full handshake (typed frames over a length-delimited transport,
// each body binenc fields):
//
//	C→S  hello_c:  nameC String, ephC Bytes, nonceC Fixed, flags Uint32
//	S→C  hello_s:  nameS String, ephS Bytes, nonceS Fixed, keyS Bytes, sig_S(transcript) Bytes
//	C→S  finish_c: keyC Bytes, sig_C(transcript) Bytes
//	S→C  ticket:   a resumption ticket field (resume.go), when flags ask for one
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

	"cloudmonatt/internal/binenc"
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
	resumed  bool
	sendAEAD cipher.AEAD
	recvAEAD cipher.AEAD
	sendSeq  uint64
	recvSeq  uint64
	sendErr  error
	recvErr  error
	sendBuf  []byte // reused frame build buffer (header + sealed record)
	recvBuf  []byte // reused frame read buffer; ReadMsg returns views of it
	recvNext []byte // bytes of recvBuf read past the last frame
	// Per-direction scratch the AEAD and the transport are handed slices
	// of. On the stack they would escape through those interfaces, costing
	// an allocation per record; one reader and one writer at a time may
	// share a Conn, so each direction owns its own.
	sendNonce [12]byte
	recvNonce [12]byte
	recvHdr   [4]byte
}

func newConn(raw net.Conn, peer string, sendKey, recvKey []byte, resumed bool) (*Conn, error) {
	send, err := newAEAD(sendKey)
	if err != nil {
		return nil, err
	}
	recv, err := newAEAD(recvKey)
	if err != nil {
		return nil, err
	}
	return &Conn{raw: raw, peer: peer, sendAEAD: send, recvAEAD: recv, resumed: resumed}, nil
}

// PeerName returns the authenticated name of the remote endpoint.
func (c *Conn) PeerName() string { return c.peer }

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

// --- raw framing (pre-encryption transport) ---

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

// startHS begins a handshake frame: the length header, which sendHS fills
// in, and the type byte. The body is appended in place behind them.
func startHS(typ byte) []byte {
	b := make([]byte, 5, 256)
	b[4] = typ
	return b
}

func sendHS(w io.Writer, frame []byte) error {
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	_, err := w.Write(frame)
	return err
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

// Each body a peer sends has one append and one decode. A decode refuses
// trailing bytes, so one that succeeds re-encodes to exactly its input.

func (h helloC) appendWire(b []byte) []byte {
	b = binenc.AppendString(b, h.Name)
	b = binenc.AppendBytes(b, h.Eph)
	b = append(b, h.Nonce[:]...)
	return binenc.AppendUint32(b, h.Flags)
}

func (h *helloC) decodeWire(body []byte) error {
	rd := binenc.NewReader(body)
	h.Name = rd.String()
	h.Eph = rd.BytesView()
	rd.Fixed(h.Nonce[:])
	h.Flags = rd.Uint32()
	return rd.Done()
}

func (h helloS) appendWire(b []byte) []byte {
	b = binenc.AppendString(b, h.Name)
	b = binenc.AppendBytes(b, h.Eph)
	b = append(b, h.Nonce[:]...)
	b = binenc.AppendBytes(b, h.Key)
	return binenc.AppendBytes(b, h.Sig)
}

func (h *helloS) decodeWire(body []byte) error {
	rd := binenc.NewReader(body)
	h.Name = rd.String()
	h.Eph = rd.BytesView()
	rd.Fixed(h.Nonce[:])
	h.Key = rd.BytesView()
	h.Sig = rd.BytesView()
	return rd.Done()
}

func (f finishC) appendWire(b []byte) []byte {
	b = binenc.AppendBytes(b, f.Key)
	return binenc.AppendBytes(b, f.Sig)
}

func (f *finishC) decodeWire(body []byte) error {
	rd := binenc.NewReader(body)
	f.Key = rd.BytesView()
	f.Sig = rd.BytesView()
	return rd.Done()
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
	if err := sendHS(conn, hc.appendWire(startHS(hsHelloC))); err != nil {
		return nil, fmt.Errorf("secchan: sending hello: %w", err)
	}
	raw, err := expectHS(conn, hsHelloS)
	var hs helloS
	if err == nil {
		err = hs.decodeWire(raw)
	}
	if err != nil {
		return nil, fmt.Errorf("secchan: reading server hello: %w", err)
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
	if err := sendHS(conn, fin.appendWire(startHS(hsFinishC))); err != nil {
		return nil, fmt.Errorf("secchan: sending finish: %w", err)
	}
	if hc.Flags&flagWantTicket != 0 {
		raw, err := expectHS(conn, hsTicket)
		if err != nil {
			return nil, fmt.Errorf("secchan: reading ticket: %w", err)
		}
		// A ticket that does not decode is dropped like a missing one.
		if t, err := decodeTicket(raw); err == nil {
			cfg.Session.storeIssued(cfg.ResumeTo, hs.Name, deriveRMS(secret[:], trans), t)
		}
	}
	kc, ks := deriveKeys(secret[:], trans)
	return newConn(conn, hs.Name, kc, ks, false)
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
		c, err := serverResume(conn, cfg, body)
		if c != nil || err != nil {
			return c, err
		}
		// Resume rejected: the client re-opens with a full hello.
		if body, err = expectHS(conn, hsHelloC); err != nil {
			return nil, fmt.Errorf("secchan: reading hello after resume reject: %w", err)
		}
	} else if typ != hsHelloC {
		return nil, fmt.Errorf("secchan: unexpected handshake frame type %d", typ)
	}
	return serverFull(conn, cfg, body)
}

func serverFull(conn net.Conn, cfg Config, helloBody []byte) (*Conn, error) {
	var hc helloC
	if err := hc.decodeWire(helloBody); err != nil {
		return nil, fmt.Errorf("secchan: reading client hello: %w", err)
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
	if err := sendHS(conn, hs.appendWire(startHS(hsHelloS))); err != nil {
		return nil, fmt.Errorf("secchan: sending server hello: %w", err)
	}
	raw, err := expectHS(conn, hsFinishC)
	var fin finishC
	if err == nil {
		err = fin.decodeWire(raw)
	}
	if err != nil {
		return nil, fmt.Errorf("secchan: reading client finish: %w", err)
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
		t := cfg.Tickets.issue(hc.Name, clientKey, deriveRMS(secret[:], trans))
		if err := sendHS(conn, appendTicket(startHS(hsTicket), t)); err != nil {
			return nil, fmt.Errorf("secchan: sending ticket: %w", err)
		}
	}
	kc, ks := deriveKeys(secret[:], trans)
	return newConn(conn, hc.Name, ks, kc, false)
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
// A frame that fits the buffer takes one Read when written in one Write, as
// WriteMsg does; bytes read past it start the next frame. Before the first
// record the buffer is the header alone, so the first frame sizes it.
func (c *Conn) ReadMsg() ([]byte, error) {
	if c.recvErr != nil {
		return nil, c.recvErr
	}
	buf := c.recvBuf[:cap(c.recvBuf)]
	if len(buf) == 0 {
		buf = c.recvHdr[:]
	}
	have := copy(buf, c.recvNext)
	c.recvNext = nil
	have, err := c.fill(buf, have, 4)
	if err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(buf)
	if n > maxFrame {
		return nil, fmt.Errorf("secchan: oversized frame (%d bytes)", n)
	}
	end := 4 + int(n)
	if end > len(buf) {
		grown := make([]byte, end)
		copy(grown, buf[:have])
		buf = grown
	}
	if have, err = c.fill(buf, have, end); err != nil {
		return nil, err
	}
	c.recvBuf, c.recvNext = buf, buf[end:have]
	if c.recvSeq == seqMax {
		c.recvErr = ErrSequenceExhausted
		return nil, c.recvErr
	}
	binary.BigEndian.PutUint64(c.recvNonce[4:], c.recvSeq)
	c.recvSeq++
	sealed := buf[4:end]
	plain, err := c.recvAEAD.Open(sealed[:0], c.recvNonce[:], sealed, nil)
	if err != nil {
		return nil, fmt.Errorf("secchan: record authentication failed (tampering or replay): %w", err)
	}
	return plain, nil
}

// fill reads into buf[have:] until at least want bytes of buf are filled,
// returning how many are. A stream that ends inside a frame is torn:
// io.ErrUnexpectedEOF.
func (c *Conn) fill(buf []byte, have, want int) (int, error) {
	n, err := io.ReadAtLeast(c.raw, buf[have:], want-have)
	if err == io.EOF && have > 0 {
		err = io.ErrUnexpectedEOF
	}
	return have + n, err
}
