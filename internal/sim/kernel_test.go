package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// scheduler is what the differential script drives: the real kernel and the
// sorted-slice reference below both implement it.
type scheduler interface {
	Now() Time
	Pending() int
	at(due Time, id int)
	after(delay Time, id int)
	cancel(id int)
	step() bool
}

// fireLog is what a run of the script leaves behind.
type fireLog struct {
	ids     []int
	at      []Time
	pending []int // Pending() observed inside each handler
}

// script decides, from one RNG shared by schedule and handlers, what each
// fired event does: schedule up to three more (delay 0 is legal and must fire
// after everything already queued for this instant), and cancel an arbitrary
// event by id - pending, already fired, already cancelled or itself.
type script struct {
	s      scheduler
	rng    *rand.Rand
	nextID int
	limit  int
	log    fireLog
}

func (sc *script) spawn(absolute bool) {
	if sc.nextID >= sc.limit {
		return
	}
	id := sc.nextID
	sc.nextID++
	// Millisecond-quantised delays force many equal due times.
	d := Time(sc.rng.Intn(6)) * time.Millisecond
	if absolute {
		sc.s.at(sc.s.Now()+d, id)
	} else {
		sc.s.after(d, id)
	}
}

func (sc *script) fired(id int) {
	sc.log.ids = append(sc.log.ids, id)
	sc.log.at = append(sc.log.at, sc.s.Now())
	sc.log.pending = append(sc.log.pending, sc.s.Pending())
	for n := sc.rng.Intn(4); n > 0; n-- {
		sc.spawn(sc.rng.Intn(2) == 0)
	}
	if sc.rng.Intn(3) == 0 {
		sc.s.cancel(sc.rng.Intn(sc.nextID))
	}
}

func runScript(s scheduler, sc *script, seed int64) fireLog {
	sc.s, sc.rng, sc.limit = s, rand.New(rand.NewSource(seed)), 3000
	for i := 0; i < 60; i++ {
		sc.spawn(i%2 == 0)
	}
	for s.step() {
	}
	return sc.log
}

// kernelSched adapts the real Kernel.
type kernelSched struct {
	*Kernel
	sc      *script
	handles map[int]Event
}

func (k *kernelSched) at(due Time, id int) {
	k.handles[id] = k.At(due, func() { k.sc.fired(id) })
}
func (k *kernelSched) after(delay Time, id int) {
	k.handles[id] = k.After(delay, func() { k.sc.fired(id) })
}
func (k *kernelSched) cancel(id int) { k.handles[id].Cancel() }
func (k *kernelSched) step() bool    { return k.Step() }

// refSched is the reference: an insertion-ordered slice stable-sorted by due
// time before every step, so (due, seq) order holds by construction.
type refSched struct {
	sc    *script
	now   Time
	queue []*refEvent
	byID  map[int]*refEvent
}

type refEvent struct {
	due       Time
	id        int
	cancelled bool
}

func (r *refSched) Now() Time    { return r.now }
func (r *refSched) Pending() int { return len(r.queue) }
func (r *refSched) at(due Time, id int) {
	e := &refEvent{due: due, id: id}
	r.queue = append(r.queue, e)
	r.byID[id] = e
}
func (r *refSched) after(delay Time, id int) { r.at(r.now+delay, id) }
func (r *refSched) cancel(id int)            { r.byID[id].cancelled = true }
func (r *refSched) step() bool {
	sort.SliceStable(r.queue, func(i, j int) bool { return r.queue[i].due < r.queue[j].due })
	for len(r.queue) > 0 {
		e := r.queue[0]
		r.queue = r.queue[1:]
		if e.cancelled {
			continue
		}
		r.now = e.due
		r.sc.fired(e.id)
		return true
	}
	return false
}

// TestKernelMatchesSortedReference is the differential test of the event
// queue: random At/After/Cancel sequences, most of them issued from inside
// handlers, must fire in the same order, at the same Now(), with the same
// Pending() (which counts cancelled events not yet popped) as a reference
// that stable-sorts by due time.
func TestKernelMatchesSortedReference(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		ksc := &script{}
		got := runScript(&kernelSched{Kernel: NewKernel(seed), sc: ksc, handles: map[int]Event{}}, ksc, seed)
		rsc := &script{}
		want := runScript(&refSched{sc: rsc, byID: map[int]*refEvent{}}, rsc, seed)

		if len(got.ids) != len(want.ids) {
			t.Fatalf("seed %d: kernel fired %d events, reference %d", seed, len(got.ids), len(want.ids))
		}
		if len(got.ids) < 500 {
			t.Fatalf("seed %d: script fired only %d events; it no longer exercises the queue", seed, len(got.ids))
		}
		for i := range want.ids {
			if got.ids[i] != want.ids[i] || got.at[i] != want.at[i] || got.pending[i] != want.pending[i] {
				t.Fatalf("seed %d: fire #%d: kernel (id %d at %v, pending %d), reference (id %d at %v, pending %d)",
					seed, i, got.ids[i], got.at[i], got.pending[i], want.ids[i], want.at[i], want.pending[i])
			}
		}
	}
}

// TestRunUntilPendingCountsUnpoppedCancelled pins what Pending() means
// around RunUntil: cancelled events at the head of the queue are popped even
// when they are due past the deadline, cancelled events behind a live one
// stay counted.
func TestRunUntilPendingCountsUnpoppedCancelled(t *testing.T) {
	k := NewKernel(1)
	nop := func() {}
	head := k.At(20*time.Millisecond, nop)
	k.At(30*time.Millisecond, nop)
	behind := k.At(40*time.Millisecond, nop)
	head.Cancel()
	behind.Cancel()
	k.RunUntil(10 * time.Millisecond)
	if k.Pending() != 2 {
		t.Fatalf("Pending = %d after RunUntil, want 2 (cancelled head popped, cancelled tail still queued)", k.Pending())
	}
	if k.Fired() != 0 || k.Now() != 10*time.Millisecond {
		t.Fatalf("Fired = %d, Now = %v; want 0 and the deadline", k.Fired(), k.Now())
	}
	k.Run()
	if k.Fired() != 1 || k.Pending() != 0 {
		t.Fatalf("Fired = %d, Pending = %d after Run; want 1 and 0", k.Fired(), k.Pending())
	}
}

// TestStaleHandleNeverCancelsLaterEvent is the handle-lifetime contract: an
// Event refers to the one scheduling that returned it, for ever. Cancel on
// a handle whose event already fired (or was cancelled and popped) is a
// no-op however many events are scheduled afterwards: the kernel recycles
// the storage, and the old handle's generation no longer reaches it.
func TestStaleHandleNeverCancelsLaterEvent(t *testing.T) {
	k := NewKernel(1)
	nop := func() {}
	var stale []Event
	for i := 0; i < 300; i++ {
		stale = append(stale, k.After(time.Millisecond, nop))
	}
	dropped := k.After(time.Millisecond, nop)
	dropped.Cancel()
	k.Run()
	if k.Fired() != 300 || k.Pending() != 0 {
		t.Fatalf("Fired = %d, Pending = %d; want 300 and 0", k.Fired(), k.Pending())
	}
	stale = append(stale, dropped)

	// Several times more later events than there were stale handles, with
	// the stale handles cancelled in between and again before running.
	const later = 2000
	count := 0
	inc := func() { count++ }
	for i := 0; i < later; i++ {
		k.After(Time(i%7)*time.Millisecond, inc)
		stale[i%len(stale)].Cancel()
	}
	for _, e := range stale {
		e.Cancel()
	}
	k.Run()
	if count != later {
		t.Fatalf("%d of %d later events fired: a stale handle cancelled a live event", count, later)
	}
}

// TestKernelAllocsPerEvent pins the event kernel's allocation rate: a fired
// or popped-cancelled event is reused by the next At, so a queue that is not
// growing allocates nothing.
func TestKernelAllocsPerEvent(t *testing.T) {
	k := NewKernel(1)
	nop := func() {}
	// A standing queue as deep as the eight-server fleet's.
	for i := 0; i < 71; i++ {
		k.After(time.Hour, nop)
	}
	const events = 1000
	perRun := testing.AllocsPerRun(20, func() {
		for i := 0; i < events; i++ {
			k.After(time.Millisecond, nop)
			if i%4 == 0 {
				k.After(time.Millisecond, nop).Cancel()
			}
			k.Step()
		}
	})
	if perRun != 0 {
		t.Fatalf("After+Cancel+Step allocates %.0f times per %d events, want 0", perRun, events)
	}
}
