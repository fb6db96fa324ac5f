// Package vclock provides the shared virtual clock of the cloud testbed.
//
// The Clock is the one authority on what time it is. It owns a discrete-event
// kernel for the testbed's own timers, and every cloud server attaches the
// kernel its hypervisor runs on: the paper's servers meet only through the
// Cloud Controller, never through each other's schedulers, so each simulates
// alone. Whoever needs virtual time to pass — the launch pipeline modeling a
// stage latency, or a cloud server serving a windowed measurement — calls
// Advance, which moves the time and runs every attached kernel up to it, one
// after another, each under its owner's lock. RPC handlers execute in their
// own goroutines, so Advance may be called from several at once; the Clock's
// mutex makes the advances take turns, and the owners' locks keep a server's
// own reads and writes of its hypervisor out of its kernel's way.
package vclock

import (
	"sync"
	"time"

	"cloudmonatt/internal/sim"
)

// Clock is the shared virtual clock.
type Clock struct {
	mu       sync.Mutex
	k        *sim.Kernel // the testbed's timers; its Now is the time
	attached []attachment
}

// attachment is one owner's kernel and the lock every use of it takes.
type attachment struct {
	mu sync.Locker
	k  *sim.Kernel
}

// New wraps the simulation kernel that carries the testbed's own timers.
func New(k *sim.Kernel) *Clock { return &Clock{k: k} }

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.k.Now()
}

// Advance moves the time forward by d: the clock's own kernel runs up to the
// new time, then every attached kernel does.
func (c *Clock) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.k.Now() + d
	c.k.RunUntil(now)
	for _, a := range c.attached {
		a.runUntil(now)
	}
}

func (a attachment) runUntil(now time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.k.RunUntil(now)
}

// Attach hands the clock a kernel to keep at the clock's time: it is caught
// up now and by every later Advance, always under mu. The owner takes mu for
// anything else it does with the kernel or what runs on it, and never calls
// Now or Advance with mu held (Advance holds the clock's mutex while it waits
// for mu).
func (c *Clock) Attach(mu sync.Locker, k *sim.Kernel) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a := attachment{mu, k}
	a.runUntil(c.k.Now())
	c.attached = append(c.attached, a)
}

// Kernel exposes the clock's own kernel, for scheduling testbed timers.
// Callers must not run it concurrently with Advance.
func (c *Clock) Kernel() *sim.Kernel { return c.k }
