package fifo

import (
	"math/rand"
	"slices"
	"testing"
)

// TestQueueMatchesSliceModel drives queues of several sizes with random
// pushes, pops and clears, and checks each against a plain slice that
// appends and drops its first element: the evicted and popped values, the
// length and the AppendTo order must agree after every step.
func TestQueueMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{1, 2, 3, 7, 64} {
		q := New[int](size)
		var model []int
		for step := 0; step < 5000; step++ {
			switch r := rng.Intn(20); {
			case r < 12:
				v := step
				evicted, ok := q.Push(v)
				model = append(model, v)
				wantOK := len(model) > size
				if ok != wantOK || (ok && evicted != model[0]) {
					t.Fatalf("size %d step %d: Push(%d) = (%d, %v), want (%d, %v)", size, step, v, evicted, ok, model[0], wantOK)
				}
				if wantOK {
					model = model[1:]
				}
			case r < 19:
				v, ok := q.Pop()
				if ok != (len(model) > 0) || (ok && v != model[0]) {
					t.Fatalf("size %d step %d: Pop = (%d, %v), model %v", size, step, v, ok, model)
				}
				if ok {
					model = model[1:]
				}
			default:
				q.Clear()
				model = nil
			}
			if q.Len() != len(model) {
				t.Fatalf("size %d step %d: Len = %d, want %d", size, step, q.Len(), len(model))
			}
			if got := q.AppendTo([]int{-1}); !slices.Equal(got[1:], model) || got[0] != -1 {
				t.Fatalf("size %d step %d: AppendTo = %v, want [-1] + %v", size, step, got, model)
			}
		}
	}
}

// TestQueueEvictsOldestFirst: a full queue hands back its values in the
// order they arrived, one per push.
func TestQueueEvictsOldestFirst(t *testing.T) {
	q := New[string](3)
	for _, v := range []string{"a", "b", "c"} {
		if _, ok := q.Push(v); ok {
			t.Fatalf("Push(%q) evicted from a queue with room", v)
		}
	}
	for i, v := range []string{"d", "e", "f", "g"} {
		want := []string{"a", "b", "c", "d"}[i]
		if got, ok := q.Push(v); !ok || got != want {
			t.Fatalf("Push(%q) evicted (%q, %v), want %q", v, got, ok, want)
		}
	}
	if got := q.AppendTo(nil); !slices.Equal(got, []string{"e", "f", "g"}) {
		t.Fatalf("AppendTo = %v, want [e f g]", got)
	}
}

// TestQueueClearZeroesSlots: Clear and Pop leave no value reachable from
// the ring, and a cleared queue refills from empty.
func TestQueueClearZeroesSlots(t *testing.T) {
	q := New[*int](4)
	for i := 0; i < 6; i++ {
		v := i
		q.Push(&v)
	}
	q.Pop()
	q.Clear()
	for i, p := range q.buf {
		if p != nil {
			t.Fatalf("slot %d holds %d after Clear", i, *p)
		}
	}
	if q.Len() != 0 || q.AppendTo(nil) != nil {
		t.Fatalf("cleared queue: Len %d, AppendTo %v", q.Len(), q.AppendTo(nil))
	}
	v := 9
	if _, ok := q.Push(&v); ok || q.Len() != 1 {
		t.Fatal("a cleared queue did not refill from empty")
	}
}

// TestQueueAllocatesOnFirstPushOnly: New allocates nothing, the first Push
// allocates the ring, and a full queue admits a value without allocating.
func TestQueueAllocatesOnFirstPushOnly(t *testing.T) {
	var q Queue[[32]byte]
	if n := testing.AllocsPerRun(100, func() { q = New[[32]byte](16) }); n != 0 {
		t.Fatalf("New allocates %.0f times, want 0", n)
	}
	if q.buf != nil {
		t.Fatal("New allocated the ring")
	}
	var v [32]byte
	for i := 0; i < 16; i++ {
		v[0] = byte(i)
		q.Push(v)
	}
	if n := testing.AllocsPerRun(100, func() { v[0]++; q.Push(v) }); n != 0 {
		t.Fatalf("a full queue admits a value with %.0f allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { q.Pop(); q.Push(v) }); n != 0 {
		t.Fatalf("Pop then Push allocates %.0f times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { q.AppendTo(nil) }); n != 1 {
		t.Fatalf("AppendTo(nil) of a wrapped queue allocates %.0f times, want 1", n)
	}
}
