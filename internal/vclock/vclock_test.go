package vclock

import (
	"sync"
	"testing"
	"time"

	"cloudmonatt/internal/sim"
)

func TestAdvanceRunsKernel(t *testing.T) {
	k := sim.NewKernel(1)
	c := New(k)
	fired := false
	k.At(50*time.Millisecond, func() { fired = true })
	c.Advance(100 * time.Millisecond)
	if !fired {
		t.Fatal("event within the advance window did not fire")
	}
	if c.Now() != 100*time.Millisecond {
		t.Fatalf("Now = %v", c.Now())
	}
}

func TestAdvanceNonPositiveNoop(t *testing.T) {
	c := New(sim.NewKernel(1))
	c.Advance(0)
	c.Advance(-time.Second)
	if c.Now() != 0 {
		t.Fatalf("Now = %v after no-op advances", c.Now())
	}
}

func TestSequentialAdvances(t *testing.T) {
	c := New(sim.NewKernel(1))
	for i := 0; i < 10; i++ {
		c.Advance(10 * time.Millisecond)
	}
	if c.Now() != 100*time.Millisecond {
		t.Fatalf("Now = %v, want 100ms", c.Now())
	}
}

func TestKernelAccess(t *testing.T) {
	k := sim.NewKernel(1)
	if New(k).Kernel() != k {
		t.Fatal("Kernel() does not return the wrapped kernel")
	}
}

// countingLock counts how often it was taken, so a test can see that the
// clock ran an attached kernel under its owner's lock.
type countingLock struct {
	sync.Mutex
	taken int
}

func (l *countingLock) Lock() {
	l.Mutex.Lock()
	l.taken++
}

// TestAdvanceRunsAttachedKernelsEagerly is the clock's contract with the
// cloud servers: an attached kernel is caught up when it is attached and by
// every Advance — eagerly, before Advance returns, under its owner's lock —
// so a kernel's Now is the clock's Now whenever nobody is advancing.
func TestAdvanceRunsAttachedKernelsEagerly(t *testing.T) {
	c := New(sim.NewKernel(1))
	c.Advance(30 * time.Millisecond)

	var locks [3]countingLock
	var kernels [3]*sim.Kernel
	var fired [3][]time.Duration
	for i := range kernels {
		i := i
		k := sim.NewKernel(int64(i))
		kernels[i] = k
		for _, at := range []time.Duration{10 * time.Millisecond, 50 * time.Millisecond, 90 * time.Millisecond} {
			k.At(at, func() { fired[i] = append(fired[i], k.Now()) })
		}
		c.Attach(&locks[i], k)
		if k.Now() != c.Now() || len(fired[i]) != 1 || locks[i].taken != 1 {
			t.Fatalf("kernel %d after Attach: Now %v (clock %v), %d events fired, lock taken %d times; want caught up under the lock",
				i, k.Now(), c.Now(), len(fired[i]), locks[i].taken)
		}
	}
	c.Advance(30 * time.Millisecond)
	c.Advance(40 * time.Millisecond)
	for i, k := range kernels {
		if k.Now() != c.Now() || k.Now() != 100*time.Millisecond {
			t.Errorf("kernel %d at %v, clock at %v, want both at 100ms", i, k.Now(), c.Now())
		}
		if len(fired[i]) != 3 || fired[i][1] != 50*time.Millisecond || fired[i][2] != 90*time.Millisecond {
			t.Errorf("kernel %d fired at %v, want its three events at their own due times", i, fired[i])
		}
		if locks[i].taken != 3 {
			t.Errorf("kernel %d's lock taken %d times, want once per Attach and Advance", i, locks[i].taken)
		}
	}
}

// TestConcurrentAdvancesTakeTurns drives one clock from several goroutines
// while an owner works on its attached kernel under its lock: under -race
// this is the check that the kernel is never run outside that lock.
func TestConcurrentAdvancesTakeTurns(t *testing.T) {
	c := New(sim.NewKernel(1))
	var mu sync.Mutex
	k := sim.NewKernel(2)
	c.Attach(&mu, k)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.Advance(time.Millisecond)
			}
		}()
	}
	ticks := 0
	for i := 0; i < 100; i++ {
		mu.Lock()
		k.After(0, func() { ticks++ })
		mu.Unlock()
	}
	wg.Wait()
	c.Advance(time.Millisecond)
	if c.Now() != 401*time.Millisecond || k.Now() != c.Now() || ticks != 100 {
		t.Fatalf("clock at %v, kernel at %v, %d of 100 owner events fired", c.Now(), k.Now(), ticks)
	}
}
