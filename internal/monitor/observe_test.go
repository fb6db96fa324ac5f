package monitor

import (
	"crypto/rand"
	"errors"
	"testing"
	"time"

	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/sim"
	"cloudmonatt/internal/trust/driver"
	"cloudmonatt/internal/workload"
	"cloudmonatt/internal/xen"
)

// callbacks counts scheduler callbacks: run segments and bus-lock events.
type callbacks struct{ segs, bus int }

// observed counts what reaches the Module's observers (mine) beside what the
// scheduler publishes to anyone registered (all). The Module registers the
// counting wrappers it is given in place of its own bound observers.
func observed(r *rig) (mine, all *callbacks) {
	mine, all = new(callbacks), new(callbacks)
	r.m.onSegment = xen.RunSegmentFunc(func(v *xen.VCPU, start, end sim.Time) {
		mine.segs++
		r.m.observe(v, start, end)
	})
	r.m.onBus = xen.BusLockFunc(func(v *xen.VCPU, at sim.Time, n int) {
		mine.bus++
		r.m.observeBus(v, at, n)
	})
	r.hv.Observe(xen.RunSegmentFunc(func(*xen.VCPU, sim.Time, sim.Time) { all.segs++ }))
	r.hv.ObserveBus(xen.BusLockFunc(func(*xen.VCPU, sim.Time, int) { all.bus++ }))
	return mine, all
}

// addFileVM hosts a `file` guest, which runs often and issues a trickle of
// bus locks, so both kinds of callback fire within milliseconds.
func addFileVM(t *testing.T, r *rig, vid string) {
	t.Helper()
	svc, err := workload.NewService("file")
	if err != nil {
		t.Fatal(err)
	}
	r.addVM(t, vid, svc, nil)
}

// registered reports whether the Module's observers are on the hypervisor.
func registered(t *testing.T, m *Module) bool {
	t.Helper()
	if (m.unobserveSegs == nil) != (m.unobserveBus == nil) {
		t.Fatal("one scheduler observer registered without the other")
	}
	return m.unobserveSegs != nil
}

// assertQuiet fails unless nothing is armed and an advance reaches none of
// the Module's observers while the scheduler keeps publishing.
func assertQuiet(t *testing.T, r *rig, mine, all *callbacks, when string) {
	t.Helper()
	if n := len(r.m.watches) + len(r.m.busWatches) + len(r.m.profiles); n != 0 {
		t.Fatalf("%s: %d watches or profile windows still armed", when, n)
	}
	if registered(t, r.m) {
		t.Fatalf("%s: observers still registered", when)
	}
	m0, a0 := *mine, *all
	r.advance(300 * time.Millisecond)
	if all.segs == a0.segs || all.bus == a0.bus {
		t.Fatalf("%s: the scheduler published %d segments and %d lock events; the probe needs both", when, all.segs-a0.segs, all.bus-a0.bus)
	}
	if *mine != m0 {
		t.Fatalf("%s: the Module received %d segments and %d lock events with nothing armed", when, mine.segs-m0.segs, mine.bus-m0.bus)
	}
}

// TestObserversRegisteredOnlyWhileArmed: a Module with nothing armed has no
// observer on the hypervisor; one windowed Collect registers each observer
// once for its window and leaves none behind.
func TestObserversRegisteredOnlyWhileArmed(t *testing.T) {
	r := newRig(t, nil)
	addFileVM(t, r, "vm-1")
	mine, all := observed(r)
	assertQuiet(t, r, mine, all, "before any watch")

	req := properties.Request{Kinds: []properties.MeasurementKind{properties.KindIntervalHistogram, properties.KindBusLockTrace}}
	m0, a0 := *mine, *all
	armed := false
	if _, err := r.m.Collect("vm-1", req, cryptoutil.MustNonce(), 0, func(w sim.Time) {
		armed = registered(t, r.m)
		r.advance(w)
	}); err != nil {
		t.Fatal(err)
	}
	if !armed {
		t.Fatal("observers not registered during the window")
	}
	// Registered once each: every callback the scheduler published in the
	// window reached the Module exactly once.
	if got, want := (callbacks{mine.segs - m0.segs, mine.bus - m0.bus}), (callbacks{all.segs - a0.segs, all.bus - a0.bus}); got != want || want.segs == 0 || want.bus == 0 {
		t.Fatalf("the Module received %+v of the window's %+v callbacks", got, want)
	}
	assertQuiet(t, r, mine, all, "after the collection")
}

// TestOverlappingWatchesKeepObservers: two watches on two VMs, one of each
// kind, keep the observers registered until the second is collected.
func TestOverlappingWatchesKeepObservers(t *testing.T) {
	r := newRig(t, nil)
	addFileVM(t, r, "vm-1")
	addFileVM(t, r, "vm-2")
	mine, all := observed(r)
	if err := r.m.StartIntervalWatch("vm-1"); err != nil {
		t.Fatal(err)
	}
	r.advance(100 * time.Millisecond)
	if err := r.m.StartBusWatch("vm-2", time.Second); err != nil {
		t.Fatal(err)
	}
	r.advance(100 * time.Millisecond)
	if _, err := r.m.CollectIntervalHistogram("vm-1"); err != nil {
		t.Fatal(err)
	}
	m0 := *mine
	r.advance(100 * time.Millisecond)
	if !registered(t, r.m) || mine.segs == m0.segs || mine.bus == m0.bus {
		t.Fatal("collecting the first watch removed the observers the second still needs")
	}
	if _, err := r.m.CollectBusTrace("vm-2"); err != nil {
		t.Fatal(err)
	}
	assertQuiet(t, r, mine, all, "after the second collection")
}

// TestFailedCollectLeavesNothingArmed: a Collect that fails after arming
// disarms every window it armed, whichever step failed, and so leaves no
// observer registered.
func TestFailedCollectLeavesNothingArmed(t *testing.T) {
	const failing properties.MeasurementKind = "custom-failing"
	kinds := func(ks ...properties.MeasurementKind) properties.Request {
		return properties.Request{Kinds: ks}
	}
	for _, tc := range []struct {
		name      string
		req       properties.Request
		noAdvance bool
	}{
		{"failing custom collector before interval-histogram",
			kinds(failing, properties.KindIntervalHistogram, properties.KindCPUTime), false},
		{"unknown kind after bus-lock-trace",
			kinds(properties.KindBusLockTrace, "bogus", properties.KindIntervalHistogram, properties.KindCPUTime), false},
		{"windowed kinds without a clock driver",
			kinds(properties.KindIntervalHistogram, properties.KindBusLockTrace, properties.KindCPUTime), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, nil)
			drv, err := driver.Open(driver.BackendTPM, driver.Config{ServerName: "server-1", Rand: rand.Reader})
			if err != nil {
				t.Fatal(err)
			}
			r.m, err = New(r.hv, r.tm.Registers(), drv, StandardPlatform(), map[properties.MeasurementKind]Collector{
				failing: func(*VM, properties.MeasurementKind, [16]byte) (properties.Measurement, error) {
					return properties.Measurement{}, errors.New("probe failed")
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			addFileVM(t, r, "vm-1")
			mine, all := observed(r)
			advance := r.advance
			if tc.noAdvance {
				advance = nil
			}
			if _, err := r.m.Collect("vm-1", tc.req, cryptoutil.MustNonce(), 0, advance); err == nil {
				t.Fatal("Collect succeeded")
			}
			assertQuiet(t, r, mine, all, "after the failed Collect")
		})
	}
}
