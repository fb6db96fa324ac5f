package xen_test

import (
	"slices"
	"testing"
	"time"

	"cloudmonatt/internal/sim"
	"cloudmonatt/internal/xen"
)

// TestObserverRemover: a remover returned by Observe or ObserveBus removes
// its own registration and nothing else, keeps the others in the order they
// were registered, and does nothing when called again, even after another
// observer has been registered since.
func TestObserverRemover(t *testing.T) {
	k := sim.NewKernel(1)
	hv := xen.New(k, xen.DefaultConfig(), 1)
	hv.NewDomain("locker", 256, 0, xen.ProgramFunc(func(xen.Env, *xen.VCPU) xen.Burst {
		return xen.Burst{Run: time.Millisecond, BusLocks: 1}
	})).WakeAll()
	var segs, locks []string
	register := func(name string) (removeSegs, removeBus func()) {
		return hv.Observe(xen.RunSegmentFunc(func(*xen.VCPU, sim.Time, sim.Time) { segs = append(segs, name) })),
			hv.ObserveBus(xen.BusLockFunc(func(*xen.VCPU, sim.Time, int) { locks = append(locks, name) }))
	}
	// expect runs the scheduler until both streams have published and checks
	// that each callback reached exactly the given observers, in order.
	expect := func(step string, want ...string) {
		t.Helper()
		segs, locks = nil, nil
		k.RunUntil(k.Now() + 5*time.Millisecond)
		for kind, got := range map[string][]string{"run segment": segs, "bus-lock event": locks} {
			if len(got) == 0 || len(got)%len(want) != 0 {
				t.Fatalf("%s: %d %s callbacks for %d observers", step, len(got), kind, len(want))
			}
			for i := 0; i < len(got); i += len(want) {
				if !slices.Equal(got[i:i+len(want)], want) {
					t.Fatalf("%s: a %s reached %v, want %v", step, kind, got[i:i+len(want)], want)
				}
			}
		}
	}
	segsA, busA := register("a")
	register("b")
	segsC, busC := register("c")
	register("d")
	expect("four registered", "a", "b", "c", "d")
	segsC()
	busC()
	expect("c removed", "a", "b", "d")
	segsC()
	busC()
	expect("c removed twice", "a", "b", "d")
	segsA()
	busA()
	register("e")
	expect("a removed, e registered", "b", "d", "e")
	segsA()
	busA()
	segsC()
	busC()
	expect("stale removers called again", "b", "d", "e")
}
