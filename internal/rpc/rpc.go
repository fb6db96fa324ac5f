// Package rpc provides the request/response layer CloudMonatt's entities
// speak over their secure channels, plus the transport abstraction that
// lets the same code run over real TCP (the cmd/ daemons) or an in-memory
// network (the in-process testbed, tests, and the Dolev-Yao attacker rig).
// An in-memory connection buffers each direction as a socket does, so a
// writer hands its record over and goes on without waiting for the reader.
//
// The attestation protocol threads every request across four networked
// entities (Customer → Controller → Attestation Server → Cloud Server), so
// this layer is built to survive component churn: every call can be
// bounded, Serve outlives transient Accept failures, and requests may
// carry idempotency keys so a retried non-idempotent method executes at
// most once. ReconnectClient (retry.go) adds redial with exponential
// backoff and per-peer circuit breakers; FaultNetwork (fault.go) injects
// the failures the rest is built to tolerate.
//
// How a call is bounded: a ReconnectClient bounds itself. Each attempt
// ends within Policy.CallTimeout, through a watchdog timer the connection keeps
// and re-arms per exchange (Reset/Stop); only the rare redial derives a
// context, for the dial and handshake. With the attempts and backoffs
// capped as well, no call outlasts Policy.Budget, and its callers pass a
// context only to carry a span or to end it sooner. A raw Client is
// bounded by its caller's context alone, through the one context.AfterFunc
// a call registers when that context can end at all. Each bound interrupts
// the exchange the same way, by moving the connection's deadline into the
// past, and nothing else touches connection deadlines. Whenever a bound
// may have fired, the connection is marked broken, since its interrupt
// can land after the call returns: the next call redials instead of
// meeting a deadline in the past.
package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"cloudmonatt/internal/fifo"
	"cloudmonatt/internal/obs"
	"cloudmonatt/internal/secchan"
)

// Network abstracts connection establishment so tests can run in memory.
// A dial is bounded (and abandoned) by its context.
type Network interface {
	DialContext(ctx context.Context, addr string) (net.Conn, error)
	Listen(addr string) (net.Listener, error)
}

// aLongTimeAgo is a deadline in the distant past: setting it interrupts
// any blocked read or write immediately (the net package idiom for
// cancellation).
var aLongTimeAgo = time.Unix(1, 0)

// --- in-memory network ---

// MemNetwork is an in-process Network: addresses are arbitrary strings and
// a connection is a pair of byte buffers that behaves like TCP
// (memconn.go).
type MemNetwork struct {
	mu        sync.Mutex
	listeners map[string]*memListener
	// Intercept, when set, wraps the two ends of every new connection; the
	// Dolev-Yao attacker uses it to own the network.
	Intercept func(addr string, client, server net.Conn) (net.Conn, net.Conn)
}

// NewMemNetwork creates an empty in-memory network.
func NewMemNetwork() *MemNetwork {
	return &MemNetwork{listeners: make(map[string]*memListener)}
}

type memListener struct {
	addr   string
	ch     chan net.Conn
	net    *MemNetwork
	closed chan struct{}
	once   sync.Once
}

type memAddr string

func (a memAddr) Network() string { return "mem" }
func (a memAddr) String() string  { return string(a) }

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c, ok := <-l.ch:
		if !ok {
			return nil, fmt.Errorf("rpc: listener closed: %w", net.ErrClosed)
		}
		return c, nil
	case <-l.closed:
		return nil, fmt.Errorf("rpc: listener closed: %w", net.ErrClosed)
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() {
		close(l.closed)
		l.net.mu.Lock()
		delete(l.net.listeners, l.addr)
		l.net.mu.Unlock()
	})
	return nil
}

func (l *memListener) Addr() net.Addr { return memAddr(l.addr) }

// Listen claims an address on the in-memory network.
func (n *MemNetwork) Listen(addr string) (net.Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, busy := n.listeners[addr]; busy {
		return nil, fmt.Errorf("rpc: address %q already in use", addr)
	}
	l := &memListener{addr: addr, ch: make(chan net.Conn), net: n, closed: make(chan struct{})}
	n.listeners[addr] = l
	return l, nil
}

// DialContext connects to a listening address. The handoff to the
// accepting side is bounded by ctx: a listener that exists but is not
// accepting cannot block the dialer past its deadline.
func (n *MemNetwork) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	n.mu.Lock()
	l, ok := n.listeners[addr]
	intercept := n.Intercept
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("rpc: no listener at %q", addr)
	}
	client, server := newMemLink(addr)
	if intercept != nil {
		client, server = intercept(addr, client, server)
	}
	select {
	case l.ch <- server:
		return client, nil
	case <-l.closed:
		client.Close()
		server.Close()
		return nil, fmt.Errorf("rpc: listener closed: %w", net.ErrClosed)
	case <-ctx.Done():
		client.Close()
		server.Close()
		return nil, fmt.Errorf("rpc: dialing %q: %w", addr, ctx.Err())
	}
}

// TCPNetwork is the real-network implementation.
type TCPNetwork struct{}

// DialContext connects over TCP, bounded by ctx.
func (TCPNetwork) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	return d.DialContext(ctx, "tcp", addr)
}

// Listen binds a TCP listener.
func (TCPNetwork) Listen(addr string) (net.Listener, error) { return net.Listen("tcp", addr) }

// --- envelopes ---

type requestEnvelope struct {
	Method string
	// IdemKey, when non-empty, makes the request idempotent on the server:
	// the handler executes at most once per key and duplicates receive the
	// recorded response (see idemCache).
	IdemKey string
	// Trace/Span carry the caller's trace context so the remote handler's
	// spans nest under the calling attempt. Empty (two zero-length
	// fields) when the caller is not traced.
	Trace string
	Span  string
	Body  []byte
}

type responseEnvelope struct {
	Err  string
	Body []byte
}

// Encode serializes a message (exported for handlers building responses)
// with the one codec its type has: its AppendWire encoding. nil is the
// empty body (a request without arguments, an ack), and a []byte already
// holds an encoded body and passes through unchanged. A type with no codec
// is an error. The returned slice is owned by the
// caller.
func Encode(v any) ([]byte, error) {
	switch v := v.(type) {
	case nil:
		return nil, nil
	case WireAppender:
		return encodeBinary(v), nil
	case []byte:
		return v, nil
	}
	return nil, fmt.Errorf("rpc: encoding %T: the type has no wire codec", v)
}

// Decode deserializes body into v with the one codec v's type has: its
// strict DecodeWire (which refuses anything not led by the binary header).
// A nil v expects the empty body, a *[]byte receives a copy of the body as
// it is, and a type with no codec is an error.
func Decode(body []byte, v any) error {
	switch v := v.(type) {
	case nil:
		if len(body) != 0 {
			return fmt.Errorf("rpc: decoding: %d-byte body where none is expected", len(body))
		}
		return nil
	case WireDecoder:
		return v.DecodeWire(body)
	case *[]byte:
		*v = append((*v)[:0], body...)
		return nil
	}
	return fmt.Errorf("rpc: decoding %T: the type has no wire codec", v)
}

// Peer describes the authenticated remote endpoint of a request, plus the
// request's propagated trace context (zero when the caller is untraced).
type Peer struct {
	Name  string
	Trace obs.SpanContext
}

// Handler serves one RPC: it receives the authenticated peer, the method
// name and the encoded request body, and returns the encoded response body
// (nil is the bodiless ack). A server builds it as Methods.Handler.
type Handler func(peer Peer, method string, body []byte) ([]byte, error)

// handshakeTimeout bounds the secure-channel handshake of each accepted
// connection (real time), so a peer that connects and stalls cannot pin a
// goroutine forever.
const handshakeTimeout = 15 * time.Second

// idemCacheSize bounds the idempotency replay cache shared by all of one
// listener's connections, in responses.
const idemCacheSize = 1024

// Serve accepts secure-channel connections on l and dispatches requests to
// h until the listener is closed. It blocks; run it in a goroutine.
// Transient Accept failures (ECONNABORTED, fd exhaustion, injected faults)
// are retried with a short backoff: only a closed listener stops the loop.
func Serve(l net.Listener, cfg secchan.Config, h Handler) {
	idem := newIdemCache(idemCacheSize)
	var backoff time.Duration
	for {
		raw, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			if backoff < 5*time.Millisecond {
				backoff = 5 * time.Millisecond
			} else if backoff *= 2; backoff > 200*time.Millisecond {
				backoff = 200 * time.Millisecond
			}
			//lint:ignore vclockonly accept-error backoff throttles a real listener; real time by design
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		go serveConn(raw, cfg, h, idem)
	}
}

func serveConn(raw net.Conn, cfg secchan.Config, h Handler, idem *idemCache) {
	defer raw.Close()
	//lint:ignore vclockonly net.Conn deadlines are kernel wall-clock deadlines by contract
	raw.SetDeadline(time.Now().Add(handshakeTimeout))
	conn, err := secchan.Server(raw, cfg)
	if err != nil {
		return // handshake failed: unauthenticated peer or network attacker
	}
	raw.SetDeadline(time.Time{})
	basePeer := Peer{Name: conn.PeerName()}
	var out []byte // the response envelope, reused across requests
	for {
		msg, err := conn.ReadMsg()
		if err != nil {
			return
		}
		var req requestEnvelope
		if err := req.DecodeWire(msg); err != nil {
			return
		}
		peer := basePeer
		peer.Trace = obs.SpanContext{Trace: req.Trace, Span: req.Span}
		var resp responseEnvelope
		if req.IdemKey != "" {
			resp = idem.do(req.IdemKey, func() responseEnvelope { return dispatch(h, peer, req) })
		} else {
			resp = dispatch(h, peer, req)
		}
		out = resp.AppendWire(out[:0])
		if err := conn.WriteMsg(out); err != nil {
			return
		}
	}
}

func dispatch(h Handler, peer Peer, req requestEnvelope) responseEnvelope {
	body, err := h(peer, req.Method, req.Body)
	if err != nil {
		return responseEnvelope{Err: err.Error()}
	}
	return responseEnvelope{Body: body}
}

// idemCache replays responses for requests bearing an idempotency key, so
// clients can safely retry non-idempotent methods (e.g. remediation RPCs):
// the handler runs at most once per key, and duplicates — including
// concurrent ones — receive the first execution's response. The oldest key
// is evicted first.
type idemCache struct {
	mu      sync.Mutex
	entries map[string]*idemEntry
	order   fifo.Queue[string] // entries' keys in arrival order
}

type idemEntry struct {
	done chan struct{}
	resp responseEnvelope
}

func newIdemCache(max int) *idemCache {
	return &idemCache{entries: make(map[string]*idemEntry), order: fifo.New[string](max)}
}

func (c *idemCache) do(key string, fn func() responseEnvelope) responseEnvelope {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		<-e.done
		return e.resp
	}
	e := &idemEntry{done: make(chan struct{})}
	c.entries[key] = e
	if old, evicted := c.order.Push(key); evicted {
		delete(c.entries, old)
	}
	c.mu.Unlock()
	e.resp = fn()
	close(e.done)
	return e.resp
}

// RemoteError is a failure reported by the remote handler: the transport
// and secure channel worked, the method itself returned an error. The
// connection remains usable, and blind retries of the same request will
// not change the outcome.
type RemoteError struct {
	Method string
	Msg    string
}

func (e *RemoteError) Error() string { return fmt.Sprintf("rpc: %s: %s", e.Method, e.Msg) }

// ErrClientBroken reports a client whose connection was poisoned by an
// earlier transport failure (a timed-out or torn call leaves the
// request/response pairing on the wire undefined). The caller must redial;
// ReconnectClient does so automatically.
var ErrClientBroken = errors.New("rpc: connection broken by earlier failure")

// Client is one secure RPC connection. Calls are serialized.
type Client struct {
	mu     sync.Mutex
	conn   *secchan.Conn
	broken bool
	out    []byte // the request envelope, reused across calls
	// watchdog interrupts an exchange past a ReconnectClient attempt's
	// deadline. Built on the first bounded call, then re-armed per call.
	watchdog *time.Timer
}

// DialContext establishes a secure channel to addr over n, bounding both
// connection establishment and the authentication handshake with ctx.
//
// When cfg carries a secchan.SessionCache, the dial address keys the
// resumption ticket for this peer (unless cfg.ResumeTo overrides it), so a
// ReconnectClient redialing after a broken connection skips the asymmetric
// handshake whenever it holds a live ticket.
func DialContext(ctx context.Context, n Network, addr string, cfg secchan.Config) (*Client, error) {
	if cfg.Session != nil && cfg.ResumeTo == "" {
		cfg.ResumeTo = addr
	}
	raw, err := n.DialContext(ctx, addr)
	if err != nil {
		return nil, err
	}
	stop := context.AfterFunc(ctx, func() { raw.SetDeadline(aLongTimeAgo) })
	conn, err := secchan.Client(raw, cfg)
	if !stop() && err == nil {
		// ctx ended as the handshake did: its interrupt may still land on
		// the connection.
		err = fmt.Errorf("rpc: dialing %q: %w", addr, ctx.Err())
	}
	if err != nil {
		raw.Close()
		return nil, err
	}
	return &Client{conn: conn}, nil
}

// Close tears down the channel.
func (c *Client) Close() error { return c.conn.Close() }

// Broken reports whether an earlier transport failure poisoned this
// connection (subsequent calls fail fast with ErrClientBroken).
func (c *Client) Broken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.broken
}

// Call sends method(req) and decodes the reply into resp (resp may be nil
// for fire-and-forget semantics with an empty reply). It exists for tests;
// production call sites carry a deadline context.
func (c *Client) Call(method string, req, resp any) error {
	return c.CallCtx(context.Background(), method, req, resp)
}

// CallCtx sends method(req) and decodes the reply into resp. Expiry or
// cancellation of the context interrupts the exchange, so a hung or
// partitioned peer cannot block the caller past it. A call that fails in
// transport poisons the connection — later calls fail fast with
// ErrClientBroken until the caller redials.
func (c *Client) CallCtx(ctx context.Context, method string, req, resp any) error {
	return c.call(ctx, obs.FromContext(ctx).Context(), time.Time{}, method, "", req, resp)
}

// call runs one exchange carrying the span context sc, interrupted when ctx
// ends or, for a non-zero deadline, when the connection's watchdog fires at
// it.
func (c *Client) call(ctx context.Context, sc obs.SpanContext, deadline time.Time, method, idemKey string, req, resp any) error {
	env := requestEnvelope{Method: method, IdemKey: idemKey}
	if sc.Traced() {
		env.Trace, env.Span = sc.Trace, sc.Span
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken {
		return fmt.Errorf("rpc: calling %s: %w", method, ErrClientBroken)
	}
	out, err := appendRequest(c.out[:0], env, req)
	if err != nil {
		return err
	}
	c.out = out
	var stop func() bool
	if ctx.Done() != nil { // a context that can never end needs no interrupt
		stop = context.AfterFunc(ctx, c.interrupt)
	}
	if !deadline.IsZero() {
		//lint:ignore vclockonly CallTimeout bounds a real network exchange; it elapses in real time
		c.arm(time.Until(deadline))
	}
	msg, err := c.exchange(method, out)
	ctxFired := stop != nil && !stop()
	if !deadline.IsZero() && !c.watchdog.Stop() || ctxFired {
		// A bound fired: its interrupt may reach the connection after
		// this call returns, so no later call may use it.
		c.broken = true
	}
	if err != nil {
		c.broken = true
		return err
	}
	var reply responseEnvelope
	if err := reply.DecodeWire(msg); err != nil {
		c.broken = true
		return err
	}
	if reply.Err != "" {
		return &RemoteError{Method: method, Msg: reply.Err}
	}
	if resp == nil {
		return nil
	}
	return Decode(reply.Body, resp)
}

// exchange writes one request record and reads its reply.
func (c *Client) exchange(method string, out []byte) ([]byte, error) {
	if err := c.conn.WriteMsg(out); err != nil {
		return nil, fmt.Errorf("rpc: sending %s: %w", method, err)
	}
	msg, err := c.conn.ReadMsg()
	if err != nil {
		return nil, fmt.Errorf("rpc: awaiting %s reply: %w", method, err)
	}
	return msg, nil
}

// arm starts the watchdog to interrupt the exchange after d. c.mu is held.
func (c *Client) arm(d time.Duration) {
	if c.watchdog == nil {
		//lint:ignore vclockonly CallTimeout bounds a real network exchange; it elapses in real time
		c.watchdog = time.AfterFunc(d, c.interrupt)
		return
	}
	c.watchdog.Reset(d)
}

// interrupt fails the exchange in flight, and any later one: the deadline
// it sets is never cleared, which is why call marks the connection broken.
func (c *Client) interrupt() { c.conn.SetDeadline(aLongTimeAgo) }
