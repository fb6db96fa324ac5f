package rpc

import (
	"errors"
	"sync"
	"time"
)

// BreakerState is the circuit-breaker state of one peer's client.
type BreakerState int

// The classic three states: Closed passes calls through, Open fails them
// fast, HalfOpen admits a single probe after the cooldown.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerPolicy tunes a per-peer circuit breaker.
type BreakerPolicy struct {
	// Threshold is the number of consecutive transport failures that trips
	// the breaker. Default 8; negative disables the breaker entirely.
	Threshold int
	// Cooldown is how long an open breaker rejects calls before admitting a
	// half-open probe. Default 1s.
	Cooldown time.Duration
}

func (p BreakerPolicy) withDefaults() BreakerPolicy {
	if p.Threshold == 0 {
		p.Threshold = 8
	}
	if p.Cooldown <= 0 {
		p.Cooldown = time.Second
	}
	return p
}

// ErrBreakerOpen fails a call fast because the peer's breaker is open: the
// peer has failed repeatedly and the cooldown has not elapsed. Callers can
// treat it as an infrastructure (not protocol) failure.
var ErrBreakerOpen = errors.New("rpc: circuit breaker open")

// breaker is a consecutive-failure circuit breaker. notify (may be nil)
// observes state transitions; it is invoked with the lock held, so it must
// not call back into the breaker.
type breaker struct {
	mu       sync.Mutex
	policy   BreakerPolicy
	state    BreakerState
	failures int
	openedAt time.Time
	probing  bool
	notify   func(from, to BreakerState)
}

func newBreaker(p BreakerPolicy, notify func(from, to BreakerState)) *breaker {
	return &breaker{policy: p.withDefaults(), notify: notify}
}

// State returns the current breaker state.
func (b *breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// allow reports whether a call may proceed now; ErrBreakerOpen otherwise.
func (b *breaker) allow() error {
	if b.policy.Threshold < 0 {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return nil
	case BreakerOpen:
		//lint:ignore vclockonly the cooldown paces redials of a real peer, like the backoff sleeps; it elapses in real time
		if time.Since(b.openedAt) < b.policy.Cooldown {
			return ErrBreakerOpen
		}
		b.transition(BreakerHalfOpen)
		b.probing = true
		return nil
	default: // half-open: one probe in flight at a time
		if b.probing {
			return ErrBreakerOpen
		}
		b.probing = true
		return nil
	}
}

// success records a completed call and closes the breaker.
func (b *breaker) success() {
	if b.policy.Threshold < 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	b.probing = false
	if b.state != BreakerClosed {
		b.transition(BreakerClosed)
	}
}

// failure records a transport failure, tripping the breaker at the
// threshold (or immediately when a half-open probe fails).
func (b *breaker) failure() {
	if b.policy.Threshold < 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	b.failures++
	if b.state == BreakerClosed && b.failures < b.policy.Threshold {
		return
	}
	//lint:ignore vclockonly the cooldown is measured from the latest failure in real time (see allow)
	b.openedAt = time.Now()
	if b.state != BreakerOpen {
		b.transition(BreakerOpen)
	}
}

func (b *breaker) transition(to BreakerState) {
	from := b.state
	b.state = to
	if b.notify != nil && from != to {
		b.notify(from, to)
	}
}
