package rpc

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	mathrand "math/rand"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cloudmonatt/internal/obs"
	"cloudmonatt/internal/secchan"
)

// Policy is how a fault-tolerant channel times out, retries and trips its
// breaker. A zero field takes its default; withDefaults is the one place
// the defaults are decided.
type Policy struct {
	// CallTimeout bounds each attempt (dial + handshake + exchange) in real
	// time: a redial under a context derived for it, the exchange under the
	// connection's watchdog. Default 30s.
	CallTimeout time.Duration
	// MaxAttempts caps the total number of attempts per call, first try
	// included. Default 4.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; it doubles per
	// retry up to MaxDelay. Defaults 25ms / 1s.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// BreakerThreshold is the number of consecutive transport failures that
	// opens the peer's breaker. Default 8; negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects calls before
	// admitting a half-open probe. Default 1s.
	BreakerCooldown time.Duration
}

// backoffJitter is the fraction of each backoff delay randomized away,
// breaking retry synchronization across peers.
const backoffJitter = 0.5

func (p Policy) withDefaults() Policy {
	if p.CallTimeout <= 0 {
		p.CallTimeout = 30 * time.Second
	}
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 25 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	if p.BreakerThreshold == 0 {
		p.BreakerThreshold = 8
	}
	if p.BreakerCooldown <= 0 {
		p.BreakerCooldown = time.Second
	}
	return p
}

// Budget is the longest one ReconnectClient call under p can take,
// whatever context it is handed: at most MaxAttempts attempts, each ended
// within CallTimeout (the redial's context and the connection's watchdog
// both enforce it), and at most MaxDelay of backoff between two of them. A
// wedged or partitioned peer therefore degrades the caller's operation
// instead of hanging it, and callers need no deadline of their own.
func (p Policy) Budget() time.Duration {
	p = p.withDefaults()
	n := time.Duration(p.MaxAttempts)
	return n*p.CallTimeout + (n-1)*p.MaxDelay
}

// EventKind classifies a fault-tolerance event.
type EventKind string

// The observable events: a retried call and a breaker state transition.
const (
	EventRetry   EventKind = "retry"
	EventBreaker EventKind = "breaker"
)

// Event is one fault-tolerance event on a peer's channel, delivered to
// ClientConfig.OnEvent for metrics and evidence recording.
type Event struct {
	Kind    EventKind
	Peer    string
	Method  string       // retries only
	Attempt int          // retries only: the attempt about to run (1-based)
	Err     error        // retries only: the failure being retried
	From    BreakerState // breaker transitions only
	To      BreakerState
}

// ClientConfig configures a ReconnectClient.
type ClientConfig struct {
	Network Network
	Addr    string
	// Peer labels events and errors; defaults to Addr.
	Peer    string
	Secchan secchan.Config
	Policy  Policy
	// OnEvent observes retries and breaker transitions. It may be called
	// concurrently and must not call back into this client.
	OnEvent func(Event)
}

// ReconnectClient is a fault-tolerant RPC client: it dials lazily,
// redials broken connections with exponential backoff plus jitter, fails
// fast behind a per-peer circuit breaker, and retries every transport
// failure within Policy.Budget. Each call form names why that is safe:
// CallCtx sends an idempotent method, CallFresh rebuilds the request with
// fresh nonces, and CallIdem carries one idempotency key on every attempt.
type ReconnectClient struct {
	cfg     ClientConfig
	breaker *breaker

	mu     sync.Mutex
	client *Client
	rng    *mathrand.Rand // backoff jitter; built by the first backoff
	closed bool
}

// NewReconnectClient creates a client for one peer. No connection is
// established until the first call (or Connect).
func NewReconnectClient(cfg ClientConfig) *ReconnectClient {
	if cfg.Peer == "" {
		cfg.Peer = cfg.Addr
	}
	cfg.Policy = cfg.Policy.withDefaults()
	rc := &ReconnectClient{cfg: cfg}
	rc.breaker = newBreaker(cfg.Policy, func(from, to BreakerState) {
		rc.event(Event{Kind: EventBreaker, Peer: cfg.Peer, From: from, To: to})
	})
	return rc
}

// BreakerState returns the current circuit-breaker state.
func (rc *ReconnectClient) BreakerState() BreakerState { return rc.breaker.State() }

// Connect ensures a live connection, dialing if necessary (bounded by
// Policy.CallTimeout, and by ctx when it ends first). Calls dial lazily, so
// Connect is only needed when reachability must be probed eagerly.
func (rc *ReconnectClient) Connect(ctx context.Context) error {
	_, err := rc.conn(ctx, rc.attemptDeadline())
	return err
}

// Close tears down the connection; subsequent calls fail.
func (rc *ReconnectClient) Close() error {
	rc.mu.Lock()
	c := rc.client
	rc.client = nil
	rc.closed = true
	rc.mu.Unlock()
	if c != nil {
		return c.Close()
	}
	return nil
}

// Call is CallCtx with a background context.
func (rc *ReconnectClient) Call(method string, req, resp any) error {
	return rc.CallCtx(context.Background(), method, req, resp)
}

// CallCtx sends method(req), retrying across transient transport failures;
// the caller asserts that the method is idempotent, so that running it
// twice converges to the state running it once does. The client bounds the
// call itself (Policy.Budget); ctx may end it sooner and may carry the
// caller's span.
func (rc *ReconnectClient) CallCtx(ctx context.Context, method string, req, resp any) error {
	return rc.do(ctx, method, "", func() (any, error) { return req, nil }, resp)
}

// CallFresh rebuilds the request for every attempt (regenerating nonces),
// which makes retrying safe at the protocol level: a replay cache on the
// peer never sees the same nonce twice. The caller asserts that re-issuing
// the rebuilt request is semantically safe.
func (rc *ReconnectClient) CallFresh(ctx context.Context, method string, makeReq func() (any, error), resp any) error {
	return rc.do(ctx, method, "", makeReq, resp)
}

// CallIdem mints one idempotency key and sends it on every attempt, so the
// server runs the method at most once and replays the recorded response to
// a retry; use for methods that must not run twice (remediation RPCs like
// terminate/migrate).
func (rc *ReconnectClient) CallIdem(ctx context.Context, method string, req, resp any) error {
	return rc.do(ctx, method, newIdemKey(), func() (any, error) { return req, nil }, resp)
}

func (rc *ReconnectClient) do(ctx context.Context, method, idemKey string, makeReq func() (any, error), resp any) error {
	// Each attempt gets its own child span under whatever span the caller
	// put in ctx, so retries show up as sibling "rpc:<method>" spans and
	// the remote handler's spans nest under the attempt that carried them.
	parent := obs.FromContext(ctx)
	var lastErr error
	for attempt := 0; attempt < rc.cfg.Policy.MaxAttempts; attempt++ {
		if attempt > 0 {
			rc.event(Event{Kind: EventRetry, Peer: rc.cfg.Peer, Method: method, Attempt: attempt + 1, Err: lastErr})
			parent.Annotate("retry", fmt.Sprintf("%s attempt %d after: %v", method, attempt+1, lastErr))
			if err := rc.sleep(ctx, attempt); err != nil {
				return lastErr
			}
		}
		if err := rc.breaker.allow(); err != nil {
			parent.Annotate("breaker", fmt.Sprintf("%s to %s rejected: breaker %s", method, rc.cfg.Peer, rc.breaker.State()))
			if lastErr != nil {
				return fmt.Errorf("rpc: %s to %s: %w (last failure: %v)", method, rc.cfg.Peer, err, lastErr)
			}
			return fmt.Errorf("rpc: %s to %s: %w", method, rc.cfg.Peer, err)
		}
		req, err := makeReq()
		if err != nil {
			return err
		}
		asp := parent.Child("rpc:" + method)
		asp.Annotate("peer", rc.cfg.Peer)
		asp.Annotate("attempt", strconv.Itoa(attempt+1))
		err = rc.attempt(ctx, asp.Context(), method, idemKey, req, resp)
		asp.EndErr(err)
		if err == nil {
			rc.breaker.success()
			return nil
		}
		var rerr *RemoteError
		if errors.As(err, &rerr) {
			// The transport round-tripped; the remote handler said no.
			rc.breaker.success()
			return err
		}
		rc.breaker.failure()
		lastErr = err
		if ctx.Err() != nil {
			return lastErr
		}
	}
	return lastErr
}

// attempt runs one try, carrying the attempt's span context sc to the peer.
// A transport failure drops the connection, so the next attempt redials.
func (rc *ReconnectClient) attempt(ctx context.Context, sc obs.SpanContext, method, idemKey string, req, resp any) error {
	deadline := rc.attemptDeadline()
	c, err := rc.conn(ctx, deadline)
	if err != nil {
		return err
	}
	err = c.call(ctx, sc, deadline, method, idemKey, req, resp)
	if err == nil {
		return nil
	}
	// Declared past the success return: errors.As moves rerr to the heap.
	var rerr *RemoteError
	if !errors.As(err, &rerr) {
		rc.drop(c)
	}
	return err
}

// attemptDeadline is when an attempt starting now must have ended.
func (rc *ReconnectClient) attemptDeadline() time.Time {
	//lint:ignore vclockonly CallTimeout bounds real network exchanges; it elapses in real time
	return time.Now().Add(rc.cfg.Policy.CallTimeout)
}

// conn returns the live connection, or dials one bounded by ctx and the
// attempt's deadline.
func (rc *ReconnectClient) conn(ctx context.Context, deadline time.Time) (*Client, error) {
	rc.mu.Lock()
	if rc.closed {
		rc.mu.Unlock()
		return nil, fmt.Errorf("rpc: client for %s: %w", rc.cfg.Peer, net.ErrClosed)
	}
	if c := rc.client; c != nil && !c.Broken() {
		rc.mu.Unlock()
		return c, nil
	}
	rc.mu.Unlock()
	ctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	c, err := DialContext(ctx, rc.cfg.Network, rc.cfg.Addr, rc.cfg.Secchan)
	if err != nil {
		return nil, fmt.Errorf("rpc: dialing %s: %w", rc.cfg.Peer, err)
	}
	rc.mu.Lock()
	if rc.closed {
		rc.mu.Unlock()
		c.Close()
		return nil, fmt.Errorf("rpc: client for %s: %w", rc.cfg.Peer, net.ErrClosed)
	}
	if rc.client != nil && rc.client != c {
		rc.client.Close()
	}
	rc.client = c
	rc.mu.Unlock()
	return c, nil
}

// drop discards a poisoned connection so the next attempt redials.
func (rc *ReconnectClient) drop(c *Client) {
	rc.mu.Lock()
	if rc.client == c {
		rc.client = nil
	}
	rc.mu.Unlock()
	c.Close()
}

func (rc *ReconnectClient) sleep(ctx context.Context, attempt int) error {
	//lint:ignore vclockonly backoff paces real network redials; it must elapse in real time even under simulation
	t := time.NewTimer(rc.backoff(attempt))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// backoff returns the exponential delay before the given retry (attempt ≥
// 1), with a random fraction (up to backoffJitter) shaved off.
func (rc *ReconnectClient) backoff(attempt int) time.Duration {
	d := rc.cfg.Policy.BaseDelay
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= rc.cfg.Policy.MaxDelay {
			d = rc.cfg.Policy.MaxDelay
			break
		}
	}
	if d > rc.cfg.Policy.MaxDelay {
		d = rc.cfg.Policy.MaxDelay
	}
	rc.mu.Lock()
	if rc.rng == nil {
		// Built here, not per client: most clients never retry, and the
		// source is ~4.9 KiB. Its seed is FNV-1a of the peer's address.
		h := fnv.New64a()
		h.Write([]byte(rc.cfg.Addr))
		rc.rng = mathrand.New(mathrand.NewSource(int64(h.Sum64())))
	}
	f := 1 - backoffJitter*rc.rng.Float64()
	rc.mu.Unlock()
	return time.Duration(float64(d) * f)
}

func (rc *ReconnectClient) event(ev Event) {
	if rc.cfg.OnEvent != nil {
		rc.cfg.OnEvent(ev)
	}
}

// idemCounter de-duplicates newIdemKey fallbacks when the entropy source
// is unavailable.
var idemCounter atomic.Uint64

// newIdemKey returns a fresh idempotency key for one CallIdem, which
// reuses it across that call's attempts only.
func newIdemKey() string {
	var buf [16]byte
	if _, err := rand.Read(buf[:]); err != nil {
		//lint:ignore vclockonly entropy source of last resort when crypto/rand fails; uniqueness matters, not replay
		return fmt.Sprintf("idem-%d-%d", time.Now().UnixNano(), idemCounter.Add(1))
	}
	return hex.EncodeToString(buf[:])
}
