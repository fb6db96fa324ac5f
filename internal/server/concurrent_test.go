package server

import (
	"sync"
	"testing"

	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/trust/driver"
	"cloudmonatt/internal/wire"
)

// TestConcurrentMeasuresAndLifecycleOnOneServer is the regression test for
// the data races on hypervisor state: two goroutines serve windowed
// cpu-availability measurements of two VMs of one server (each arms and
// collects a profile and advances the clock, which runs the scheduler) while
// a third launches, suspends, resumes and terminates a VM there and a fourth
// reads Info. Before the server had one lock over its hypervisor, -race
// reported the scheduler's wake against the monitor's TotalRuntime, the
// kernel's clock against StartProfile, Suspend's state write against Info,
// and DestroyDomain against the running kernel. Run with -race.
func TestConcurrentMeasuresAndLifecycleOnOneServer(t *testing.T) {
	r := newRig(t)
	for i, vid := range []string{"vm-1", "vm-2"} {
		spec := smallSpec(vid, "database")
		spec.Pin = i
		if err := r.srv.Launch(spec); err != nil {
			t.Fatal(err)
		}
	}
	free := r.srv.Free()
	req, err := driver.MapToMeasurements(driver.BackendTPM, properties.CPUAvailability)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 25
	var wg sync.WaitGroup
	for _, vid := range []string{"vm-1", "vm-2"} {
		vid := vid
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				n3 := cryptoutil.MustNonce()
				ev, err := r.srv.Measure(wire.MeasureRequest{Vid: vid, Req: req, N3: n3})
				if err != nil {
					t.Error(err)
					return
				}
				if err := wire.VerifyEvidence(ev, r.ca.Name(), r.ca.PublicKey(), vid, req, n3); err != nil {
					t.Errorf("evidence for %s does not verify: %v", vid, err)
					return
				}
				// Two measurements interleave their advances, so a window
				// may come out longer than asked, never shorter.
				if m := ev.Measurements[0]; m.WallTime < req.Window || m.CPUTime <= 0 || m.CPUTime > m.WallTime {
					t.Errorf("%s: CPU time %v over a %v window (asked %v)", vid, m.CPUTime, m.WallTime, req.Window)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4*rounds; i++ {
			steps := []func(string) error{
				func(vid string) error { return r.srv.Launch(smallSpec(vid, "web")) },
				r.srv.Suspend, r.srv.Resume, r.srv.Terminate,
			}
			for _, step := range steps {
				if err := step("vm-3"); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	stop := make(chan struct{})
	reader := make(chan struct{})
	go func() {
		defer close(reader)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, vid := range []string{"vm-1", "vm-2", "vm-3"} {
				// vm-3 comes and goes; "no VM" is an answer too.
				if info, err := r.srv.Info(vid); err == nil && info.Runtime < 0 {
					t.Errorf("%s: negative runtime %v", vid, info.Runtime)
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-reader
	if got := r.srv.Free(); got != free {
		t.Fatalf("free capacity %+v after the churn, %+v before it", got, free)
	}
}
