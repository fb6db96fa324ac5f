// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel drives the Xen-like hypervisor model (internal/xen) and the
// modeled-latency cloud pipeline (internal/cloudsim). Time is virtual: an
// event loop pops timestamped events from a priority queue and advances the
// clock to each event's due time, so simulated minutes execute in real
// microseconds and every run is reproducible from its RNG seed.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is a point in virtual time measured as a duration since the start of
// the simulation. It deliberately reuses time.Duration so call sites can use
// the familiar literals (30*time.Millisecond etc.).
type Time = time.Duration

// Event is the handle on one scheduled callback: a small value naming the one
// At or After call that returned it. The kernel reuses an event's storage once
// it has fired or been popped cancelled; the generation stamp is what keeps a
// handle held past that point from reaching whatever is scheduled there next.
// The zero Event refers to nothing.
type Event struct {
	e   *event
	gen uint64
}

// event is the storage behind a handle. gen counts how many schedulings have
// ended here (fired, or popped after a Cancel): a handle is live only while
// its stamp equals it.
type event struct {
	fire      func()
	gen       uint64
	cancelled bool
}

// Cancel prevents a pending event from firing. Cancelling an event that has
// already fired or been cancelled, or the zero Event, is a no-op.
func (h Event) Cancel() {
	if h.e != nil && h.e.gen == h.gen {
		h.e.cancelled = true
	}
}

// slot is one entry of the event queue. The due time lives in the slot, not
// behind the pointer, so an insert compares without a dereference.
type slot struct {
	due Time
	ev  *event
}

// slabSize is how many events one allocation adds when every event the kernel
// owns is queued.
const slabSize = 128

// Kernel is a discrete-event simulation executive. The zero value is not
// usable; construct with NewKernel.
type Kernel struct {
	now    Time
	queue  []slot   // by due time, then scheduling order, latest first: the head is the last slot
	free   []*event // events not queued, most recently released last
	rng    *rand.Rand
	fired  uint64
	halted bool
}

// NewKernel returns a kernel whose random source is seeded deterministically.
func NewKernel(seed int64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand exposes the kernel's deterministic random source. All stochastic
// model decisions must draw from this source so runs replay identically.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Fired returns the number of events executed so far (useful in tests and
// as a progress/liveness measure).
func (k *Kernel) Fired() uint64 { return k.fired }

// Pending returns the number of events currently queued (including
// cancelled events that have not yet been popped).
func (k *Kernel) Pending() int { return len(k.queue) }

// At schedules fire to run at absolute virtual time due. Scheduling in the
// past (before Now) panics: it indicates a model bug, not a runtime
// condition a caller could handle.
func (k *Kernel) At(due Time, fire func()) Event {
	if due < k.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", due, k.now))
	}
	if len(k.free) == 0 {
		slab := make([]event, slabSize)
		for i := range slab {
			k.free = append(k.free, &slab[i])
		}
	}
	e := k.free[len(k.free)-1]
	k.free = k.free[:len(k.free)-1]
	e.fire = fire
	// The new slot fires after every slot due no later than it (those were
	// scheduled before it) and before every slot due later: it enters at the
	// head end and walks back past the former. A kernel's queue holds a
	// handful of events (DESIGN §16), where this walk is cheaper than a
	// heap's sift up and sift down.
	q := append(k.queue, slot{})
	i := len(q) - 1
	for i > 0 && q[i-1].due <= due {
		q[i] = q[i-1]
		i--
	}
	q[i] = slot{due: due, ev: e}
	k.queue = q
	return Event{e, e.gen}
}

// pop removes the earliest slot of a non-empty queue and ends that scheduling:
// the event goes back on the free list under its next generation, so every
// handle on it is stale from here on. It returns when the event was due and
// what it was to run, nil if it had been cancelled.
func (k *Kernel) pop() (Time, func()) {
	n := len(k.queue) - 1
	top := k.queue[n]
	k.queue = k.queue[:n]
	e := top.ev
	fire := e.fire
	if e.cancelled {
		fire = nil
	}
	e.fire, e.cancelled = nil, false
	e.gen++
	k.free = append(k.free, e)
	return top.due, fire
}

// After schedules fire to run delay after the current time.
func (k *Kernel) After(delay Time, fire func()) Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return k.At(k.now+delay, fire)
}

// Halt stops the currently executing Run/RunUntil after the in-flight event
// completes. Pending events remain queued.
func (k *Kernel) Halt() { k.halted = true }

// Step executes the single earliest pending non-cancelled event and returns
// true, or returns false if the queue is empty.
func (k *Kernel) Step() bool {
	for len(k.queue) > 0 {
		due, fire := k.pop()
		if fire == nil {
			continue
		}
		k.now = due
		k.fired++
		fire()
		return true
	}
	return false
}

// RunUntil executes events in timestamp order until the queue is exhausted
// or the next event is due strictly after deadline. The clock is left at
// min(deadline, last event time ≥ previous now): after RunUntil returns,
// Now() == deadline when the simulation reached it.
func (k *Kernel) RunUntil(deadline Time) {
	k.halted = false
	for !k.halted && len(k.queue) > 0 {
		head := k.queue[len(k.queue)-1]
		if head.ev.cancelled {
			k.pop() // skip cancelled events without advancing time
			continue
		}
		if head.due > deadline {
			break
		}
		k.Step()
	}
	if k.now < deadline {
		k.now = deadline
	}
}

// Run executes events until the queue is empty or Halt is called.
func (k *Kernel) Run() {
	k.halted = false
	for !k.halted && k.Step() {
	}
}
