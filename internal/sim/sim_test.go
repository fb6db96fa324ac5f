package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestEmptyKernel(t *testing.T) {
	k := NewKernel(1)
	if k.Step() {
		t.Fatal("Step on empty kernel should return false")
	}
	if k.Now() != 0 {
		t.Fatalf("Now = %v, want 0", k.Now())
	}
}

func TestEventOrdering(t *testing.T) {
	k := NewKernel(1)
	var got []int
	k.At(30*time.Millisecond, func() { got = append(got, 3) })
	k.At(10*time.Millisecond, func() { got = append(got, 1) })
	k.At(20*time.Millisecond, func() { got = append(got, 2) })
	for k.Step() {
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 30*time.Millisecond {
		t.Fatalf("Now = %v, want 30ms", k.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	k := NewKernel(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(time.Millisecond, func() { got = append(got, i) })
	}
	for k.Step() {
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events fired out of order: %v", got)
		}
	}
}

func TestAfterRelative(t *testing.T) {
	k := NewKernel(1)
	var at Time
	k.At(5*time.Millisecond, func() {
		k.After(7*time.Millisecond, func() { at = k.Now() })
	})
	for k.Step() {
	}
	if at != 12*time.Millisecond {
		t.Fatalf("nested After fired at %v, want 12ms", at)
	}
}

func TestCancel(t *testing.T) {
	k := NewKernel(1)
	fired := false
	e := k.At(time.Millisecond, func() { fired = true })
	e.Cancel()
	for k.Step() {
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
	e.Cancel() // double cancel is a no-op
}

func TestCancelFromEarlierEvent(t *testing.T) {
	k := NewKernel(1)
	fired := false
	later := k.At(10*time.Millisecond, func() { fired = true })
	k.At(5*time.Millisecond, func() { later.Cancel() })
	for k.Step() {
	}
	if fired {
		t.Fatal("event cancelled mid-run still fired")
	}
}

// TestCancelOwnEventInHandler: a handler cancelling its own handle, whose
// slot was popped to fire it, changes no pending slot, and an event it then
// schedules for now fires after those already due now.
func TestCancelOwnEventInHandler(t *testing.T) {
	type pending struct {
		due  Time
		id   uint64
		live bool
	}
	snapshot := func(k *Kernel) []pending {
		var ps []pending
		for _, s := range k.queue {
			ps = append(ps, pending{s.due, s.id, s.fire != nil})
		}
		return ps
	}
	k := NewKernel(1)
	var fired []string
	note := func(name string) func() { return func() { fired = append(fired, name) } }
	k.At(time.Millisecond, note("a"))
	k.At(2*time.Millisecond, note("b"))
	var self Event
	self = k.At(2*time.Millisecond, func() {
		fired = append(fired, "self")
		before := snapshot(k)
		self.Cancel()
		if after := snapshot(k); !slices.Equal(before, after) {
			t.Errorf("cancelling the firing event changed the queue: %v, then %v", before, after)
		}
		k.After(0, note("now"))
	})
	k.At(2*time.Millisecond, note("c"))
	cancelled := k.At(3*time.Millisecond, note("cancelled"))
	cancelled.Cancel()
	k.At(3*time.Millisecond, note("d"))
	for k.Step() {
	}
	if got, want := strings.Join(fired, " "), "a b self c now d"; got != want {
		t.Fatalf("fired %q, want %q", got, want)
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel(1)
	var fired []Time
	for _, d := range []Time{time.Millisecond, 5 * time.Millisecond, 50 * time.Millisecond} {
		d := d
		k.At(d, func() { fired = append(fired, d) })
	}
	k.RunUntil(10 * time.Millisecond)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if k.Now() != 10*time.Millisecond {
		t.Fatalf("Now = %v, want deadline 10ms", k.Now())
	}
	if k.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", k.Pending())
	}
	// Continue to the remaining event.
	k.RunUntil(time.Second)
	if len(fired) != 3 {
		t.Fatalf("fired %d events after second RunUntil, want 3", len(fired))
	}
	if k.Now() != time.Second {
		t.Fatalf("Now = %v, want 1s", k.Now())
	}
}

func TestRunUntilEventExactlyAtDeadline(t *testing.T) {
	k := NewKernel(1)
	fired := false
	k.At(10*time.Millisecond, func() { fired = true })
	k.RunUntil(10 * time.Millisecond)
	if !fired {
		t.Fatal("event due exactly at deadline did not fire")
	}
}

// TestRunUntilNeverRunsTimeBackwards: whatever the deadlines, an event fires
// no earlier than the time any earlier RunUntil left the clock at, and
// RunUntil leaves nothing queued that was due before the clock.
func TestRunUntilNeverRunsTimeBackwards(t *testing.T) {
	k := NewKernel(5)
	rng := rand.New(rand.NewSource(5))
	var floor Time
	var handler func()
	handler = func() {
		if k.Now() < floor {
			t.Fatalf("event fired at %v after RunUntil left the clock at %v", k.Now(), floor)
		}
		if rng.Intn(2) == 0 {
			k.After(Time(rng.Intn(20))*time.Millisecond, handler)
		}
	}
	for i := 0; i < 200; i++ {
		k.After(Time(rng.Intn(50))*time.Millisecond, handler)
	}
	for deadline := Time(0); k.Pending() > 0; deadline += Time(rng.Intn(7)) * time.Millisecond {
		k.RunUntil(deadline)
		floor = k.Now()
		for _, s := range k.queue {
			if s.fire != nil && s.due < floor {
				t.Fatalf("RunUntil(%v) left an event due at %v queued", deadline, s.due)
			}
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	k := NewKernel(1)
	k.At(10*time.Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(5*time.Millisecond, func() {})
	})
	for k.Step() {
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	NewKernel(1).After(-time.Millisecond, func() {})
}

func TestDeterministicRand(t *testing.T) {
	a, b := NewKernel(42), NewKernel(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same-seed kernels diverged")
		}
	}
}

func TestFiredCount(t *testing.T) {
	k := NewKernel(1)
	for i := 0; i < 25; i++ {
		k.After(Time(i)*time.Millisecond, func() {})
	}
	for k.Step() {
	}
	if k.Fired() != 25 {
		t.Fatalf("Fired = %d, want 25", k.Fired())
	}
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing time order and the final clock equals the max delay.
func TestQuickEventOrderProperty(t *testing.T) {
	f := func(delaysMS []uint16) bool {
		if len(delaysMS) == 0 {
			return true
		}
		k := NewKernel(7)
		var seen []Time
		var max Time
		for _, d := range delaysMS {
			due := Time(d) * time.Millisecond
			if due > max {
				max = due
			}
			k.At(due, func() { seen = append(seen, k.Now()) })
		}
		for k.Step() {
		}
		if len(seen) != len(delaysMS) {
			return false
		}
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return k.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling an arbitrary subset leaves exactly the complement to fire.
func TestQuickCancelSubsetProperty(t *testing.T) {
	f := func(n uint8, mask uint64) bool {
		count := int(n%40) + 1
		k := NewKernel(3)
		fired := make([]bool, count)
		events := make([]Event, count)
		for i := 0; i < count; i++ {
			i := i
			events[i] = k.At(Time(i)*time.Millisecond, func() { fired[i] = true })
		}
		for i := 0; i < count; i++ {
			if mask&(1<<uint(i%64)) != 0 {
				events[i].Cancel()
			}
		}
		for k.Step() {
		}
		for i := 0; i < count; i++ {
			cancelled := mask&(1<<uint(i%64)) != 0
			if fired[i] == cancelled {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkKernelThroughput measures one schedule + one fire with a number
// of standing events, each rescheduling itself after a pseudo-random delay
// from a handler bound once: depth-8 is what a server's kernel holds
// (TestSplitFleetQueueDepthPinned in internal/xen bounds it at 16), depth-71
// what the eight-server fleet held when it ran on one kernel.
func BenchmarkKernelThroughput(b *testing.B) {
	for _, depth := range []int{8, 71} {
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			k := NewKernel(1)
			rng := rand.New(rand.NewSource(1))
			var delays [1024]Time
			for i := range delays {
				delays[i] = Time(1+rng.Intn(10000)) * time.Microsecond
			}
			next := 0
			var again func()
			again = func() {
				next++
				k.After(delays[next%len(delays)], again)
			}
			for i := 0; i < depth; i++ {
				again()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Step()
			}
		})
	}
}
