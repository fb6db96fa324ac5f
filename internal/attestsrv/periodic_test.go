package attestsrv

// Engine-level tests: the periodic monitoring engine with a stub appraisal
// path and a manually advanced clock, so scheduling, shedding, and
// stop-vs-in-flight races are pinned without the cost (or nondeterminism)
// of real crypto appraisals. CI runs this file under -race.

import (
	"container/heap"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cloudmonatt/internal/metrics"
	"cloudmonatt/internal/obs"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/wire"
)

// testClock is a manually advanced virtual clock safe for concurrent use.
type testClock struct{ ns atomic.Int64 }

func (c *testClock) now() time.Duration      { return time.Duration(c.ns.Load()) }
func (c *testClock) advance(d time.Duration) { c.ns.Add(int64(d)) }
func (c *testClock) set(d time.Duration)     { c.ns.Store(int64(d)) }
func noJitter(max int64) int64               { return max / 2 }
func okAppraise(obs.SpanContext, string, string, properties.Property) (*wire.Report, error) {
	return &wire.Report{}, nil
}

// TestPeriodicEngineChurnRace arms >1000 tasks across 8 servers and churns
// start/stop/fetch from several goroutines while a ticker drives runDue.
// It pins the engine's core invariants under -race:
//
//   - a stopped task never delivers another report until re-armed;
//   - every drain is bounded by ResultBuffer;
//   - every due tick resolves to exactly one counted outcome:
//     ticks == produced + skipped + failures + stopped-discards.
func TestPeriodicEngineChurnRace(t *testing.T) {
	const (
		nTasks   = 1024
		nServers = 8
		buffer   = 4
		churners = 8
	)
	var clock testClock
	reg := metrics.NewRegistry()
	var fail atomic.Int64
	appraise := func(_ obs.SpanContext, vid, serverID string, p properties.Property) (*wire.Report, error) {
		// A deterministic slice of appraisals fails, exercising the
		// failure-reschedule path alongside the happy path.
		if fail.Add(1)%17 == 0 {
			return nil, errors.New("synthetic appraisal failure")
		}
		return &wire.Report{Vid: vid, ServerID: serverID, Prop: p}, nil
	}
	e := newPeriodicEngine(PeriodicConfig{Workers: 16, ServerInflight: 4, ResultBuffer: buffer},
		clock.now, noJitter, appraise, reg, nil)

	vid := func(i int) string { return fmt.Sprintf("vm-%04d", i) }
	srv := func(i int) string { return fmt.Sprintf("cloud-server-%d", i%nServers+1) }
	for i := 0; i < nTasks; i++ {
		if err := e.start(vid(i), srv(i), properties.CPUAvailability, time.Second, i%3 == 0); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	// Ticker: advance virtual time and run the due set. runDue waits for
	// its dispatched batch, so when this loop exits every outcome of every
	// tick it issued has been committed.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			clock.advance(500 * time.Millisecond)
			e.runDue()
		}
	}()
	// Churners: each owns the disjoint task set i ≡ g (mod churners), so
	// per-task operations are sequential and post-stop fetches must drain
	// empty until the task is re-armed.
	errs := make(chan error, churners)
	for g := 0; g < churners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 6; round++ {
				for i := g; i < nTasks; i += churners {
					b := e.fetch(vid(i), properties.CPUAvailability)
					if len(b.Entries) > buffer {
						errs <- fmt.Errorf("fetch drained %d > buffer %d", len(b.Entries), buffer)
						return
					}
					if i%5 != round%5 {
						continue
					}
					if b = e.stop(vid(i), properties.CPUAvailability); len(b.Entries) > buffer {
						errs <- fmt.Errorf("stop drained %d > buffer %d", len(b.Entries), buffer)
						return
					}
					// Stopped: no further delivery, even while the engine
					// keeps ticking other tasks (and possibly finishes an
					// in-flight appraisal of this one).
					if b = e.fetch(vid(i), properties.CPUAvailability); len(b.Entries) != 0 {
						errs <- fmt.Errorf("report delivered for stopped task %s", vid(i))
						return
					}
					if err := e.start(vid(i), srv(i), properties.CPUAvailability, time.Second, i%2 == 0); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	ticks := reg.Counter("periodic/ticks").Value()
	produced := reg.Counter("periodic/produced").Value()
	skipped := reg.Counter("periodic/skipped").Value()
	failures := reg.Counter("periodic/failures").Value()
	discards := reg.Counter("periodic/stopped-discards").Value()
	if ticks == 0 {
		t.Fatal("no ticks fired")
	}
	if ticks != produced+skipped+failures+discards {
		t.Fatalf("outcome accounting broken: ticks=%d produced=%d skipped=%d failures=%d discards=%d",
			ticks, produced, skipped, failures, discards)
	}
	// Final sweep: every surviving ring is within bound.
	for i := 0; i < nTasks; i++ {
		if b := e.stop(vid(i), properties.CPUAvailability); len(b.Entries) > buffer {
			t.Fatalf("final drain of %s: %d > buffer %d", vid(i), len(b.Entries), buffer)
		}
	}
}

// TestPeriodicStopDiscardsInFlightResult pins the stop/deliver race the
// linear scheduler had: stopping a task while its appraisal is in flight
// must discard the late result, not deliver it after the customer already
// received the final drain.
func TestPeriodicStopDiscardsInFlightResult(t *testing.T) {
	var clock testClock
	started := make(chan struct{})
	release := make(chan struct{})
	reg := metrics.NewRegistry()
	appraise := func(obs.SpanContext, string, string, properties.Property) (*wire.Report, error) {
		close(started)
		<-release
		return &wire.Report{}, nil
	}
	e := newPeriodicEngine(PeriodicConfig{}, clock.now, noJitter, appraise, reg, nil)
	if err := e.start("vm-1", "s1", properties.CPUAvailability, time.Second, false); err != nil {
		t.Fatal(err)
	}
	clock.set(2 * time.Second)
	done := make(chan []*wire.Report, 1)
	go func() { done <- e.runDue() }()
	<-started
	if b := e.stop("vm-1", properties.CPUAvailability); len(b.Entries) != 0 {
		t.Fatalf("final drain returned %d reports for a task with nothing buffered", len(b.Entries))
	}
	close(release)
	if produced := <-done; len(produced) != 0 {
		t.Fatalf("runDue returned %d reports for a stopped task", len(produced))
	}
	if n := reg.Counter("periodic/stopped-discards").Value(); n != 1 {
		t.Fatalf("stopped-discards = %d, want 1", n)
	}
	if b := e.fetch("vm-1", properties.CPUAvailability); len(b.Entries) != 0 {
		t.Fatal("report resurrected after stop")
	}
}

// TestPeriodicSkipsWhileInFlight pins the shedding semantics: a deadline
// arriving while the previous appraisal of the same task is still running
// is skipped and counted, not queued into a pileup.
func TestPeriodicSkipsWhileInFlight(t *testing.T) {
	var clock testClock
	started := make(chan struct{})
	release := make(chan struct{})
	reg := metrics.NewRegistry()
	appraise := func(obs.SpanContext, string, string, properties.Property) (*wire.Report, error) {
		close(started)
		<-release
		return &wire.Report{}, nil
	}
	e := newPeriodicEngine(PeriodicConfig{}, clock.now, noJitter, appraise, reg, nil)
	if err := e.start("vm-1", "s1", properties.CPUAvailability, time.Second, false); err != nil {
		t.Fatal(err)
	}
	clock.set(1500 * time.Millisecond)
	done := make(chan []*wire.Report, 1)
	go func() { done <- e.runDue() }()
	<-started
	// The appraisal is pinned in flight; the next deadline passes.
	clock.set(3 * time.Second)
	if out := e.runDue(); len(out) != 0 {
		t.Fatalf("shed tick produced %d reports", len(out))
	}
	if n := reg.Counter("periodic/skipped").Value(); n != 1 {
		t.Fatalf("skipped = %d, want 1", n)
	}
	close(release)
	if produced := <-done; len(produced) != 1 {
		t.Fatalf("slow appraisal produced %d reports, want 1", len(produced))
	}
	b := e.fetch("vm-1", properties.CPUAvailability)
	if len(b.Entries) != 1 || b.Skipped != 1 {
		t.Fatalf("fetch = %d reports, skipped %d; want 1 and 1", len(b.Entries), b.Skipped)
	}
	// Loss accounting resets on drain.
	if b = e.fetch("vm-1", properties.CPUAvailability); b.Skipped != 0 {
		t.Fatalf("skipped not reset on drain: %d", b.Skipped)
	}
}

// TestPeriodicFailureRescheduling pins the fix for the nonce-failure hot
// loop: an appraisal that errors must still advance the task's deadline, so
// a driver polling NextDue/RunDue makes progress instead of spinning on a
// permanently due task.
func TestPeriodicFailureRescheduling(t *testing.T) {
	var clock testClock
	reg := metrics.NewRegistry()
	boom := func(obs.SpanContext, string, string, properties.Property) (*wire.Report, error) {
		return nil, errors.New("entropy exhausted")
	}
	e := newPeriodicEngine(PeriodicConfig{}, clock.now, noJitter, boom, reg, nil)
	if err := e.start("vm-1", "s1", properties.CPUAvailability, time.Second, false); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		clock.set(time.Duration(i) * time.Second)
		if out := e.runDue(); len(out) != 0 {
			t.Fatalf("failing appraisal produced reports: %d", len(out))
		}
		nd, ok := e.nextDue()
		if !ok {
			t.Fatal("task vanished from the queue")
		}
		if nd <= clock.now() {
			t.Fatalf("deadline %v not advanced past now %v after failure %d — hot loop", nd, clock.now(), i)
		}
		// Re-running at the same instant must be a no-op, not a re-fire.
		e.runDue()
	}
	if n := reg.Counter("periodic/failures").Value(); n != 5 {
		t.Fatalf("failures = %d, want 5", n)
	}
	if n := reg.Counter("periodic/ticks").Value(); n != 5 {
		t.Fatalf("ticks = %d, want 5", n)
	}
}

// TestPeriodicRingDropsOldest pins the bounded-buffer semantics: a customer
// that never fetches loses the oldest reports, counted per task and
// surfaced on the next drain.
func TestPeriodicRingDropsOldest(t *testing.T) {
	var clock testClock
	reg := metrics.NewRegistry()
	var seq atomic.Int64
	appraise := func(_ obs.SpanContext, vid, serverID string, p properties.Property) (*wire.Report, error) {
		return &wire.Report{Verdict: properties.Verdict{Reason: fmt.Sprintf("r%d", seq.Add(1))}}, nil
	}
	e := newPeriodicEngine(PeriodicConfig{ResultBuffer: 3}, clock.now, noJitter, appraise, reg, nil)
	if err := e.start("vm-1", "s1", properties.CPUAvailability, time.Second, false); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 8; i++ {
		clock.set(time.Duration(i) * time.Second)
		e.runDue()
	}
	b := e.fetch("vm-1", properties.CPUAvailability)
	if len(b.Entries) != 3 {
		t.Fatalf("drained %d reports, want 3", len(b.Entries))
	}
	if b.Dropped != 5 {
		t.Fatalf("dropped = %d, want 5", b.Dropped)
	}
	// Oldest-first eviction: the survivors are the newest three, in order.
	for i, want := range []string{"r6", "r7", "r8"} {
		if got := b.Entries[i].Verdict.Reason; got != want {
			t.Fatalf("survivor %d = %s, want %s", i, got, want)
		}
	}
	if n := reg.Counter("periodic/dropped").Value(); n != 5 {
		t.Fatalf("dropped counter = %d, want 5", n)
	}
}

// BenchmarkPeriodicEngine measures one runDue pass over a large armed fleet
// (10k tasks across 32 servers) where only a staggered slice is due per
// tick. The heap makes each pass O(due · log n): per-tick cost tracks the
// due set, not the armed count.
func BenchmarkPeriodicEngine(b *testing.B) {
	for _, armed := range []int{1_000, 10_000} {
		b.Run(fmt.Sprintf("armed%d", armed), func(b *testing.B) {
			const nServers = 32
			var clock testClock
			reg := metrics.NewRegistry()
			e := newPeriodicEngine(PeriodicConfig{Workers: 16, ServerInflight: 8, ResultBuffer: 4},
				clock.now, noJitter, okAppraise, reg, nil)
			for i := 0; i < armed; i++ {
				vid := fmt.Sprintf("vm-%05d", i)
				srv := fmt.Sprintf("cloud-server-%d", i%nServers+1)
				if err := e.start(vid, srv, properties.CPUAvailability, time.Second, false); err != nil {
					b.Fatal(err)
				}
			}
			// Stagger deadlines uniformly across a 1s period so each 10ms
			// tick finds ~armed/100 tasks due.
			e.mu.Lock()
			for i, tk := range e.queue {
				tk.nextDue = time.Duration(i%100) * 10 * time.Millisecond
			}
			heap.Init(&e.queue)
			e.mu.Unlock()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clock.advance(10 * time.Millisecond)
				e.runDue()
			}
			b.StopTimer()
			ticks := reg.Counter("periodic/ticks").Value()
			if b.N > 0 && ticks > 0 {
				b.ReportMetric(float64(ticks)/float64(b.N), "appraisals/tick")
			}
		})
	}
}
