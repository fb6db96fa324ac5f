package xen_test

import (
	"testing"
	"time"

	"cloudmonatt/internal/sim"
	"cloudmonatt/internal/workload"
	"cloudmonatt/internal/xen"
)

// haltedDom0 is the host VM as internal/server models it: halted until an IPI
// says work is queued. Nothing here queues any, so it never runs.
var haltedDom0 = xen.ProgramFunc(func(xen.Env, *xen.VCPU) xen.Burst { return xen.Burst{Halt: true} })

// pollingDom0 is the host VM as every server modelled it until Dom0 slept on
// its event channel: a zero-length burst every 5 ms.
var pollingDom0 = xen.ProgramFunc(func(xen.Env, *xen.VCPU) xen.Burst {
	return xen.Burst{Block: 5 * time.Millisecond}
})

// fileGuests returns n programs running the I/O-bound `file` service.
func fileGuests(tb testing.TB, n int) []xen.Program {
	tb.Helper()
	guests := make([]xen.Program, n)
	for i := range guests {
		svc, err := workload.NewService("file")
		if err != nil {
			tb.Fatal(err)
		}
		guests[i] = svc
	}
	return guests
}

// addServer puts on k what one of the repository benchmark's servers runs:
// a hypervisor with two pCPUs, dom0 on pCPU 0, and the guests pinned
// round-robin.
func addServer(k *sim.Kernel, dom0 xen.Program, guests []xen.Program) *xen.Hypervisor {
	hv := xen.New(k, xen.DefaultConfig(), 2)
	hv.NewDomain("dom0", 512, 0, dom0).WakeAll()
	for g, prog := range guests {
		hv.NewDomain("guest", 256, g%2, prog).WakeAll()
	}
	return hv
}

// newFleet puts servers with `file` guests on one kernel.
func newFleet(tb testing.TB, seed int64, dom0 xen.Program, servers, guestsEach int) (*sim.Kernel, []*xen.Hypervisor) {
	tb.Helper()
	k := sim.NewKernel(seed)
	hvs := make([]*xen.Hypervisor, servers)
	for i := range hvs {
		hvs[i] = addServer(k, dom0, fileGuests(tb, guestsEach))
	}
	return k, hvs
}

// TestFiredCountPinned pins how many events a fixed seeded scenario fires
// and how many it leaves queued. The simulator may get cheaper per event; it
// may not fire different events: any change to these numbers changes every
// figure that runs on the scheduler. The first two rows are one kernel under
// a polling Dom0, unchanged since they were first pinned; the last is the
// fleet as the testbed now runs it, one kernel per server under a Dom0 that
// sleeps.
func TestFiredCountPinned(t *testing.T) {
	for _, tc := range []struct {
		name            string
		servers, guests int
		wantFired       uint64
		wantPending     int
	}{
		{"steady", 1, 1, 7160, 6},
		{"fleet", 8, 4, 116240, 71},
	} {
		k, _ := newFleet(t, 1, pollingDom0, tc.servers, tc.guests)
		k.RunUntil(10 * time.Second)
		if k.Fired() != tc.wantFired || k.Pending() != tc.wantPending {
			t.Errorf("%s: 10 virtual seconds fired %d events and left %d pending, want %d and %d",
				tc.name, k.Fired(), k.Pending(), tc.wantFired, tc.wantPending)
		}
	}
	for i, want := range []struct {
		fired   uint64
		pending int
	}{
		{12624, 8}, {12557, 8}, {12592, 8}, {12589, 8}, {12601, 8}, {12569, 8}, {12550, 8}, {12584, 8},
	} {
		k, _ := newFleet(t, int64(i+1), haltedDom0, 1, 4)
		k.RunUntil(10 * time.Second)
		if k.Fired() != want.fired || k.Pending() != want.pending {
			t.Errorf("split fleet, kernel seeded %d: 10 virtual seconds fired %d events and left %d pending, want %d and %d",
				i+1, k.Fired(), k.Pending(), want.fired, want.pending)
		}
	}
}

// TestSplitFleetQueueDepthPinned bounds the queue depth that internal/sim's
// sorted-slice queue is chosen for (DESIGN §16): stepped event by event over
// the ten virtual seconds of TestFiredCountPinned's split fleet, no server's
// kernel holds more than 16 pending events. A model change that deepens the
// queue fails here, and reopens the choice of queue, instead of paying for
// the depth on every insert unnoticed.
func TestSplitFleetQueueDepthPinned(t *testing.T) {
	const bound = 16
	for seed := int64(1); seed <= 8; seed++ {
		k, _ := newFleet(t, seed, haltedDom0, 1, 4)
		deepest := k.Pending()
		for k.Now() < 10*time.Second && k.Step() {
			deepest = max(deepest, k.Pending())
		}
		if k.Fired() < 12000 {
			t.Fatalf("kernel seeded %d fired %d events in ten virtual seconds; the scenario no longer runs the fleet", seed, k.Fired())
		}
		if deepest > bound {
			t.Errorf("kernel seeded %d held %d pending events, want at most %d", seed, deepest, bound)
		}
		t.Logf("kernel seeded %d: at most %d pending over %d events", seed, deepest, k.Fired())
	}
}

// TestWarmVirtualSecondAllocatesNothing pins the scheduler's allocation rate
// at the shape of one benchmark server (Dom0 + four `file` guests on two
// pCPUs): once the event queue and the run queues have reached their working
// size, a virtual second allocates nothing.
func TestWarmVirtualSecondAllocatesNothing(t *testing.T) {
	k, _ := newFleet(t, 1, haltedDom0, 1, 4)
	k.RunUntil(2 * time.Second)
	before := k.Fired()
	const runs = 5
	allocs := testing.AllocsPerRun(runs, func() { k.RunUntil(k.Now() + time.Second) })
	// AllocsPerRun makes one warm-up call before the ones it counts.
	events := float64(k.Fired()-before) / (runs + 1)
	if events < 1000 {
		t.Fatalf("only %.0f events per virtual second; the scenario no longer exercises the scheduler", events)
	}
	if allocs != 0 {
		t.Fatalf("%.0f allocations per virtual second for %.0f events, want 0", allocs, events)
	}
}

// TestDestroyedDomainsLeaveTheScheduler is the regression test for a
// server whose accounting walk grew with every VM it had ever hosted: after
// 1000 create/run/destroy cycles the hypervisor knows only its live domains,
// and a virtual second costs what it costs on a hypervisor that never
// churned.
func TestDestroyedDomainsLeaveTheScheduler(t *testing.T) {
	churnedK, churnedHVs := newFleet(t, 1, haltedDom0, 1, 1)
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
	freshK, _ := newFleet(t, 1, haltedDom0, 1, 1)
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

// eventCounter wraps a program and counts the events its bursts make the
// kernel fire: the burst's end when it runs, the timed wake when it sleeps or
// waits for the disk. (A burst cut by the timeslice fires one more end; the
// `file` guests' millisecond bursts never are.)
type eventCounter struct {
	xen.Program
	events *uint64
}

func (c eventCounter) NextBurst(env xen.Env, self *xen.VCPU) xen.Burst {
	b := c.Program.NextBurst(env, self)
	if b.Run > 0 {
		*c.events++
	}
	if b.Block > 0 || b.IOBytes > 0 {
		*c.events++
	}
	return b
}

// BenchmarkHypervisorVirtualSecond measures one virtual second of the credit
// scheduler at the shapes the repository benchmark runs — attest-steady's one
// server with one guest, and attest-fleet's eight servers with four guests
// each, on one kernel and on a kernel per server the way vclock.Clock.Advance
// runs them — and reports where the events come from: the guests' wakes and
// burst ends and Dom0's, counted by wrapping the programs, the pCPUs' ticks,
// and their accounting passes (every AcctPeriod sharp, so counted from the
// clock). What the four leave of Fired() is reported as other/vsec.
func BenchmarkHypervisorVirtualSecond(b *testing.B) {
	for _, shape := range []struct {
		name                     string
		kernels, servers, guests int // servers per kernel, guests per server
	}{
		{"1hv-1dom", 1, 1, 1},
		{"8hv-32dom", 1, 8, 4},
		{"8hv-8kernels", 8, 1, 4},
	} {
		b.Run(shape.name, func(b *testing.B) {
			var guestEv, dom0Ev uint64
			kernels := make([]*sim.Kernel, shape.kernels)
			var hvs []*xen.Hypervisor
			for i := range kernels {
				kernels[i] = sim.NewKernel(int64(i + 1))
				for s := 0; s < shape.servers; s++ {
					guests := fileGuests(b, shape.guests)
					for g := range guests {
						guests[g] = eventCounter{guests[g], &guestEv}
					}
					hvs = append(hvs, addServer(kernels[i], eventCounter{haltedDom0, &dom0Ev}, guests))
				}
			}
			// fired, ticks and accounting passes so far, over every kernel.
			counts := func() (fired, ticks, accts uint64) {
				for _, k := range kernels {
					fired += k.Fired()
				}
				for _, hv := range hvs {
					for _, p := range hv.PCPUs() {
						ticks += p.Ticks()
						accts += uint64(hv.Now() / hv.Config().AcctPeriod)
					}
				}
				return
			}
			advance := func(d time.Duration) {
				now := kernels[0].Now() + d
				for _, k := range kernels {
					k.RunUntil(now)
				}
			}
			advance(2 * time.Second)
			fired0, ticks0, accts0 := counts()
			guest0, dom00 := guestEv, dom0Ev
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				advance(time.Second)
			}
			b.StopTimer()
			fired, ticks, accts := counts()
			fired, ticks, accts = fired-fired0, ticks-ticks0, accts-accts0
			guest, dom0 := guestEv-guest0, dom0Ev-dom00
			perSec := func(n uint64) float64 { return float64(n) / float64(b.N) }
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(fired), "ns/event")
			b.ReportMetric(perSec(fired), "events/vsec")
			b.ReportMetric(perSec(guest), "guest/vsec")
			b.ReportMetric(perSec(dom0), "dom0/vsec")
			b.ReportMetric(perSec(ticks), "tick/vsec")
			b.ReportMetric(perSec(accts), "acct/vsec")
			b.ReportMetric(perSec(fired)-perSec(guest+dom0+ticks+accts), "other/vsec")
		})
	}
}
