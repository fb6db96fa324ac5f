// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel drives the Xen-like hypervisor model (internal/xen) and the
// modeled-latency cloud pipeline (internal/cloudsim). Time is virtual: an
// event loop pops timestamped events from a queue and advances the clock to
// each event's due time, so simulated minutes execute in real microseconds
// and every run is reproducible from its RNG seed. A queued event is one
// slot of that queue, holding its due time, its id and the function it
// runs; the kernel's random stream is a Rand, math/rand's stream drawn
// without an interface call.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in virtual time measured as a duration since the start of
// the simulation. It deliberately reuses time.Duration so call sites can use
// the familiar literals (30*time.Millisecond etc.).
type Time = time.Duration

// Event is the handle on one scheduled callback: the kernel and the id of the
// one At or After call that returned it. At never hands an id out twice, so a
// handle held past its event's firing reaches nothing scheduled later. The
// zero Event refers to nothing.
type Event struct {
	k  *Kernel
	id uint64
}

// Cancel prevents a pending event from firing. Cancelling an event that has
// already fired or been cancelled, or the zero Event, is a no-op. The
// cancelled slot stays queued until it is popped. A handler cancelling its
// own event, whose slot Step popped already, returns without the scan.
func (h Event) Cancel() {
	if h.k == nil || h.id == h.k.firing {
		return
	}
	q := h.k.queue
	for i := len(q) - 1; i >= 0; i-- {
		if q[i].id == h.id {
			q[i].fire = nil
			return
		}
	}
}

// slot is one queued event; fire is nil once the event is cancelled.
type slot struct {
	due  Time
	id   uint64
	fire func()
}

// Kernel is a discrete-event simulation executive. The zero value is not
// usable; construct with NewKernel.
type Kernel struct {
	now    Time
	queue  []slot // by due time, then scheduling order, latest first: the head is the last slot
	lastID uint64 // the id the latest At handed out
	firing uint64 // the id of the event Step fired last
	fired  uint64
	rng    Rand
}

// NewKernel returns a kernel whose random source is seeded deterministically.
func NewKernel(seed int64) *Kernel {
	k := &Kernel{}
	k.rng.seed(seed)
	return k
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand exposes the kernel's deterministic random source. All stochastic
// model decisions must draw from this source so runs replay identically.
func (k *Kernel) Rand() *Rand { return &k.rng }

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
	k.lastID++
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
	q[i] = slot{due: due, id: k.lastID, fire: fire}
	k.queue = q
	return Event{k, k.lastID}
}

// pop removes the earliest slot of a non-empty queue and returns it. The
// vacated slot drops its function, so the queue keeps no handler alive.
func (k *Kernel) pop() slot {
	n := len(k.queue) - 1
	s := k.queue[n]
	k.queue[n].fire = nil
	k.queue = k.queue[:n]
	return s
}

// After schedules fire to run delay after the current time.
func (k *Kernel) After(delay Time, fire func()) Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return k.At(k.now+delay, fire)
}

// Step executes the single earliest pending non-cancelled event and returns
// true, or returns false if the queue is empty.
func (k *Kernel) Step() bool {
	for len(k.queue) > 0 {
		s := k.pop()
		if s.fire == nil {
			continue
		}
		k.now = s.due
		k.fired++
		k.firing = s.id
		s.fire()
		return true
	}
	return false
}

// RunUntil executes events in timestamp order until the queue is exhausted
// or the next event is due strictly after deadline. The clock is left at
// min(deadline, last event time ≥ previous now): after RunUntil returns,
// Now() == deadline when the simulation reached it.
func (k *Kernel) RunUntil(deadline Time) {
	for len(k.queue) > 0 {
		head := &k.queue[len(k.queue)-1]
		if head.fire == nil {
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
