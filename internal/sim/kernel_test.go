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
	depth  int // the depth a handler steers Pending() towards; 0: let it grow
	log    fireLog
}

// regime is the queue depth a script runs at: how many events it starts
// with, the depth its handlers hold (0: the queue grows until the script has
// scheduled all its events), and the range Pending() must stay in over the
// first half of the run for the regime to be the one it is named for.
type regime struct {
	name           string
	initial, depth int
	lo, hi         int
}

var (
	// shallow is the depth every kernel of the program runs at (DESIGN §16).
	shallow = regime{name: "shallow", initial: 8, depth: 8, lo: 1, hi: 16}
	// deep keeps at least 64 events standing and grows into the hundreds.
	deep = regime{name: "deep", initial: 72, lo: 64, hi: 3000}
)

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
	n := sc.rng.Intn(4)
	if sc.depth > 0 {
		// Below the depth one to three, at it none or one: the queue
		// neither dies out nor grows.
		if sc.s.Pending() < sc.depth {
			n = 1 + sc.rng.Intn(3)
		} else {
			n = sc.rng.Intn(2)
		}
	}
	for ; n > 0; n-- {
		sc.spawn(sc.rng.Intn(2) == 0)
	}
	if sc.rng.Intn(3) == 0 {
		sc.s.cancel(sc.rng.Intn(sc.nextID))
	}
}

func runScript(s scheduler, sc *script, r regime, seed int64) fireLog {
	sc.s, sc.rng, sc.limit, sc.depth = s, rand.New(rand.NewSource(seed)), 3000, r.depth
	for i := 0; i < r.initial; i++ {
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
// time before every step, so it fires by due time, then scheduling order,
// by construction.
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
// that stable-sorts by due time. It runs at the depth the program's kernels
// run at and at depths of 64 and more, where the queue's insert walks far.
func TestKernelMatchesSortedReference(t *testing.T) {
	for _, r := range []regime{shallow, deep} {
		for seed := int64(1); seed <= 25; seed++ {
			ksc := &script{}
			got := runScript(&kernelSched{Kernel: NewKernel(seed), sc: ksc, handles: map[int]Event{}}, ksc, r, seed)
			rsc := &script{}
			want := runScript(&refSched{sc: rsc, byID: map[int]*refEvent{}}, rsc, r, seed)

			if len(got.ids) != len(want.ids) {
				t.Fatalf("%s, seed %d: kernel fired %d events, reference %d", r.name, seed, len(got.ids), len(want.ids))
			}
			if len(got.ids) < 500 {
				t.Fatalf("%s, seed %d: script fired only %d events; it no longer exercises the queue", r.name, seed, len(got.ids))
			}
			for i := range want.ids {
				if got.ids[i] != want.ids[i] || got.at[i] != want.at[i] || got.pending[i] != want.pending[i] {
					t.Fatalf("%s, seed %d: fire #%d: kernel (id %d at %v, pending %d), reference (id %d at %v, pending %d)",
						r.name, seed, i, got.ids[i], got.at[i], got.pending[i], want.ids[i], want.at[i], want.pending[i])
				}
			}
			if lo, hi := depthRange(got.pending[:len(got.pending)/2]); lo < r.lo || hi > r.hi {
				t.Fatalf("%s, seed %d: Pending() ran %d..%d over the first half of the script, want within %d..%d",
					r.name, seed, lo, hi, r.lo, r.hi)
			}
		}
	}
}

// depthRange returns the least and greatest of the observed depths.
func depthRange(pending []int) (lo, hi int) {
	lo, hi = pending[0], pending[0]
	for _, p := range pending {
		lo, hi = min(lo, p), max(hi, p)
	}
	return lo, hi
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
	for k.Step() {
	}
	if k.Fired() != 1 || k.Pending() != 0 {
		t.Fatalf("Fired = %d, Pending = %d after stepping; want 1 and 0", k.Fired(), k.Pending())
	}
}

// TestStaleHandleNeverCancelsLaterEvent is the handle-lifetime contract: an
// Event refers to the one scheduling that returned it, for ever. Cancel on
// a handle whose event already fired (or was cancelled and popped) is a
// no-op however many events are scheduled afterwards: the kernel reuses the
// queue's slots, and no later event gets the old handle's id.
func TestStaleHandleNeverCancelsLaterEvent(t *testing.T) {
	k := NewKernel(1)
	nop := func() {}
	var stale []Event
	for i := 0; i < 300; i++ {
		stale = append(stale, k.After(time.Millisecond, nop))
	}
	dropped := k.After(time.Millisecond, nop)
	dropped.Cancel()
	for k.Step() {
	}
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
	for k.Step() {
	}
	if count != later {
		t.Fatalf("%d of %d later events fired: a stale handle cancelled a live event", count, later)
	}
}

// TestKernelAllocsPerEvent pins the event kernel's allocation rate: the slot
// of a fired or popped-cancelled event is reused by the next At, so a queue
// that is not growing allocates nothing, at the depth the program's kernels
// run at and at a depth far beyond it.
func TestKernelAllocsPerEvent(t *testing.T) {
	for _, depth := range []int{8, 64} {
		k := NewKernel(1)
		nop := func() {}
		for i := 0; i < depth; i++ {
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
			t.Fatalf("depth %d: After+Cancel+Step allocates %.0f times per %d events, want 0", depth, perRun, events)
		}
	}
}
