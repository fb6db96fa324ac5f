package xen_test

import (
	"testing"
	"time"

	"cloudmonatt/internal/sim"
	"cloudmonatt/internal/workload"
	"cloudmonatt/internal/xen"
)

// newFleet builds what the repository benchmark's servers put on a kernel:
// per hypervisor two pCPUs, a Dom0 that polls every 5 ms on pCPU 0, and
// guests running the I/O-bound `file` service pinned round-robin.
func newFleet(tb testing.TB, seed int64, hypervisors, guestsEach int) (*sim.Kernel, []*xen.Hypervisor) {
	tb.Helper()
	k := sim.NewKernel(seed)
	dom0 := xen.ProgramFunc(func(xen.Env, *xen.VCPU) xen.Burst {
		return xen.Burst{Block: 5 * time.Millisecond}
	})
	hvs := make([]*xen.Hypervisor, hypervisors)
	for i := range hvs {
		hvs[i] = xen.New(k, xen.DefaultConfig(), 2)
		hvs[i].NewDomain("dom0", 512, 0, dom0).WakeAll()
		for g := 0; g < guestsEach; g++ {
			svc, err := workload.NewService("file")
			if err != nil {
				tb.Fatal(err)
			}
			hvs[i].NewDomain("guest", 256, g%2, svc).WakeAll()
		}
	}
	return k, hvs
}

// TestFiredCountPinned pins how many events a fixed seeded scenario fires
// and how many it leaves queued. The simulator may get cheaper per event; it
// may not fire different events: any change to these two numbers changes
// every figure that runs on the scheduler.
func TestFiredCountPinned(t *testing.T) {
	for _, tc := range []struct {
		name                string
		hypervisors, guests int
		wantFired           uint64
		wantPending         int
	}{
		{"steady", 1, 1, 7160, 6},
		{"fleet", 8, 4, 116240, 71},
	} {
		k, _ := newFleet(t, 1, tc.hypervisors, tc.guests)
		k.RunUntil(10 * time.Second)
		if k.Fired() != tc.wantFired || k.Pending() != tc.wantPending {
			t.Errorf("%s: 10 virtual seconds fired %d events and left %d pending, want %d and %d",
				tc.name, k.Fired(), k.Pending(), tc.wantFired, tc.wantPending)
		}
	}
}

// TestVirtualSecondAllocatesOnlySlabRefills pins the scheduler's allocation
// rate at the shape of one benchmark server (Dom0 + four `file` guests on
// two pCPUs): once the queues have reached their working size, a virtual
// second allocates the kernel's event slabs and nothing per event.
func TestVirtualSecondAllocatesOnlySlabRefills(t *testing.T) {
	k, _ := newFleet(t, 1, 1, 4)
	k.RunUntil(2 * time.Second) // let the event queue and run queues grow to size
	before := k.Fired()
	const runs = 5
	allocs := testing.AllocsPerRun(runs, func() { k.RunUntil(k.Now() + time.Second) })
	// AllocsPerRun makes one warm-up call before the ones it counts.
	events := float64(k.Fired()-before) / (runs + 1)
	if events < 1000 {
		t.Fatalf("only %.0f events per virtual second; the scenario no longer exercises the scheduler", events)
	}
	// Events come 128 to a slab; cancelled events take a slot without firing.
	if budget := events/128*1.25 + 2; allocs > budget {
		t.Fatalf("%.0f allocations per virtual second for %.0f events, want at most %.0f (slab refills only)", allocs, events, budget)
	}
}

// TestDestroyedDomainsLeaveTheScheduler is the regression test for a
// server whose accounting walk grew with every VM it had ever hosted: after
// 1000 create/run/destroy cycles the hypervisor knows only its live domains,
// and a virtual second costs what it costs on a hypervisor that never
// churned.
func TestDestroyedDomainsLeaveTheScheduler(t *testing.T) {
	churnedK, churnedHVs := newFleet(t, 1, 1, 1)
	churned := churnedHVs[0]
	for i := 0; i < 1000; i++ {
		svc, err := workload.NewService("file")
		if err != nil {
			t.Fatal(err)
		}
		d := churned.NewDomain("tenant", 256, i%2, svc)
		d.WakeAll()
		churnedK.RunUntil(churnedK.Now() + 20*time.Millisecond)
		churned.DestroyDomain(d)
		if !d.Done() {
			t.Fatalf("cycle %d: destroyed domain still live", i)
		}
	}
	if got := len(churned.Domains()); got != 2 {
		t.Fatalf("%d domains known after the churn, want the 2 live ones", got)
	}

	// Same live set, no history. Alternate the two and keep each one's
	// fastest virtual second, so machine noise hits both alike.
	freshK, _ := newFleet(t, 1, 1, 1)
	freshK.RunUntil(churnedK.Now())
	fastest := func(k *sim.Kernel, best time.Duration) time.Duration {
		start := time.Now()
		k.RunUntil(k.Now() + time.Second)
		if d := time.Since(start); d < best {
			return d
		}
		return best
	}
	fresh, after := time.Hour, time.Hour
	for i := 0; i < 15; i++ {
		fresh = fastest(freshK, fresh)
		after = fastest(churnedK, after)
	}
	if after > 2*fresh {
		t.Fatalf("a virtual second costs %v after 1000 domain lifetimes, %v without them", after, fresh)
	}
}

// BenchmarkHypervisorVirtualSecond measures one virtual second of the credit
// scheduler at the two shapes the repository benchmark runs: attest-steady's
// one server with one guest, and attest-fleet's eight servers with four
// guests each, all on one kernel.
func BenchmarkHypervisorVirtualSecond(b *testing.B) {
	for _, shape := range []struct {
		name                string
		hypervisors, guests int
	}{
		{"1hv-1dom", 1, 1},
		{"8hv-32dom", 8, 4},
	} {
		b.Run(shape.name, func(b *testing.B) {
			k, _ := newFleet(b, 1, shape.hypervisors, shape.guests)
			k.RunUntil(2 * time.Second)
			before := k.Fired()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.RunUntil(k.Now() + time.Second)
			}
			events := float64(k.Fired() - before)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
			b.ReportMetric(events/float64(b.N), "events/vsec")
		})
	}
}
