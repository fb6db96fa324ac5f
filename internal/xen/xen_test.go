package xen

import (
	"testing"
	"time"

	"cloudmonatt/internal/sim"
)

// spinner runs forever in bursts of the given length, yielding in between.
func spinner(burst sim.Time) Program {
	return ProgramFunc(func(env Env, self *VCPU) Burst {
		return Burst{Run: burst}
	})
}

// finite runs total CPU time in fixed bursts, then finishes.
type finite struct {
	burst sim.Time
	left  sim.Time
}

func (f *finite) NextBurst(env Env, self *VCPU) Burst {
	if f.left <= 0 {
		return Burst{Done: true}
	}
	run := f.burst
	if run > f.left {
		run = f.left
	}
	f.left -= run
	return Burst{Run: run, Done: f.left <= 0}
}

func newHV(t testing.TB, n int) (*sim.Kernel, *Hypervisor) {
	t.Helper()
	k := sim.NewKernel(42)
	return k, New(k, DefaultConfig(), n)
}

func TestSingleSpinnerGetsAllCPU(t *testing.T) {
	k, hv := newHV(t, 1)
	d := hv.NewDomain("solo", 256, 0, spinner(5*time.Millisecond))
	d.WakeAll()
	k.RunUntil(time.Second)
	got := d.TotalRuntime()
	if got < 990*time.Millisecond {
		t.Fatalf("solo spinner got %v of 1s, want ~all", got)
	}
	if idle := hv.PCPUs()[0].IdleTime(); idle > 10*time.Millisecond {
		t.Fatalf("pCPU idled %v with a spinner runnable", idle)
	}
}

func TestTwoEqualSpinnersShareFairly(t *testing.T) {
	k, hv := newHV(t, 1)
	a := hv.NewDomain("a", 256, 0, spinner(5*time.Millisecond))
	b := hv.NewDomain("b", 256, 0, spinner(5*time.Millisecond))
	a.WakeAll()
	b.WakeAll()
	k.RunUntil(3 * time.Second)
	ra, rb := a.TotalRuntime(), b.TotalRuntime()
	total := ra + rb
	if total < 2990*time.Millisecond {
		t.Fatalf("combined runtime %v, want ~3s", total)
	}
	frac := float64(ra) / float64(total)
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("unfair split: a=%v b=%v (a frac %.2f)", ra, rb, frac)
	}
}

func TestWeightedSharing(t *testing.T) {
	k, hv := newHV(t, 1)
	heavy := hv.NewDomain("heavy", 512, 0, spinner(5*time.Millisecond))
	light := hv.NewDomain("light", 256, 0, spinner(5*time.Millisecond))
	heavy.WakeAll()
	light.WakeAll()
	k.RunUntil(3 * time.Second)
	rh, rl := heavy.TotalRuntime(), light.TotalRuntime()
	ratio := float64(rh) / float64(rl)
	// credit1's sampled debiting is only approximately weight-proportional
	// (the same property the paper's attacks exploit); require a clear bias
	// toward the heavy domain rather than an exact 2:1.
	if ratio < 1.25 || ratio > 2.8 {
		t.Fatalf("weight 2:1 produced runtime ratio %.2f (heavy=%v light=%v)", ratio, rh, rl)
	}
}

func TestConservationOfCPUTime(t *testing.T) {
	k, hv := newHV(t, 1)
	doms := []*Domain{
		hv.NewDomain("a", 256, 0, spinner(3*time.Millisecond)),
		hv.NewDomain("b", 256, 0, spinner(7*time.Millisecond)),
		hv.NewDomain("c", 256, 0, spinner(11*time.Millisecond)),
	}
	for _, d := range doms {
		d.WakeAll()
	}
	horizon := 2 * time.Second
	k.RunUntil(horizon)
	var used sim.Time
	for _, d := range doms {
		used += d.TotalRuntime()
	}
	used += hv.PCPUs()[0].IdleTime()
	if diff := used - horizon; diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("CPU time not conserved: runtime+idle=%v, wall=%v", used, horizon)
	}
}

func TestFiniteProgramCompletes(t *testing.T) {
	k, hv := newHV(t, 1)
	d := hv.NewDomain("job", 256, 0, &finite{burst: 10 * time.Millisecond, left: 100 * time.Millisecond})
	d.WakeAll()
	k.RunUntil(time.Second)
	at, ok := d.DoneAt()
	if !ok {
		t.Fatal("finite program did not complete")
	}
	if at < 100*time.Millisecond || at > 110*time.Millisecond {
		t.Fatalf("solo 100ms job finished at %v", at)
	}
	if got := d.TotalRuntime(); got != 100*time.Millisecond {
		t.Fatalf("TotalRuntime = %v, want exactly 100ms", got)
	}
}

func TestContendedJobTakesTwiceAsLong(t *testing.T) {
	k, hv := newHV(t, 1)
	job := hv.NewDomain("job", 256, 0, &finite{burst: 10 * time.Millisecond, left: 300 * time.Millisecond})
	other := hv.NewDomain("other", 256, 0, spinner(10*time.Millisecond))
	job.WakeAll()
	other.WakeAll()
	k.RunUntil(3 * time.Second)
	at, ok := job.DoneAt()
	if !ok {
		t.Fatal("job did not complete under contention")
	}
	// Fair share is 50%, so a 300ms job should take ~600ms.
	if at < 500*time.Millisecond || at > 750*time.Millisecond {
		t.Fatalf("contended 300ms job finished at %v, want ~600ms", at)
	}
}

func TestBlockedVCPUConsumesNothing(t *testing.T) {
	k, hv := newHV(t, 1)
	sleeper := hv.NewDomain("sleeper", 256, 0, ProgramFunc(func(env Env, self *VCPU) Burst {
		return Burst{Run: time.Millisecond, Block: 99 * time.Millisecond}
	}))
	sleeper.WakeAll()
	k.RunUntil(time.Second)
	got := sleeper.TotalRuntime()
	if got < 9*time.Millisecond || got > 11*time.Millisecond {
		t.Fatalf("1%% duty-cycle sleeper used %v of 1s", got)
	}
}

func TestBoostPreemptsRunningSpinner(t *testing.T) {
	k, hv := newHV(t, 1)
	spin := hv.NewDomain("spin", 256, 0, spinner(25*time.Millisecond))
	spin.WakeAll()

	// A sleeper that wakes via timer stays UNDER (rarely sampled by ticks),
	// so each wake should BOOST it onto the CPU with low latency.
	var wakeAt, runAt []sim.Time
	sleeper := hv.NewDomain("sleeper", 256, 0, ProgramFunc(func(env Env, self *VCPU) Burst {
		runAt = append(runAt, env.Now())
		return Burst{Run: 500 * time.Microsecond, Block: 13 * time.Millisecond}
	}))
	hv.Observe(RunSegmentFunc(func(v *VCPU, start, end sim.Time) {
		if v.Domain() == sleeper {
			wakeAt = append(wakeAt, start)
		}
	}))
	sleeper.WakeAll()
	k.RunUntil(time.Second)
	if len(runAt) < 20 {
		t.Fatalf("sleeper only dispatched %d times", len(runAt))
	}
	// Latency from becoming runnable to running should be ~0 thanks to BOOST
	// (the spinner would otherwise hold the CPU for up to 25ms bursts).
	// Check: consecutive dispatches are ~13.5ms apart, not 25ms+.
	var worst sim.Time
	for i := 1; i < len(runAt); i++ {
		gap := runAt[i] - runAt[i-1]
		if gap > worst {
			worst = gap
		}
	}
	if worst > 20*time.Millisecond {
		t.Fatalf("worst inter-dispatch gap %v suggests BOOST is not preempting", worst)
	}
}

// tickEvader runs bursts timed between tick instants so it is never sampled
// by the credit debit and therefore stays UNDER forever. This is the
// scheduling primitive both paper attacks build on.
func tickEvader(margin sim.Time) Program {
	return ProgramFunc(func(env Env, self *VCPU) Burst {
		now := env.Now()
		tick := env.TickPeriod()
		next := (now/tick + 1) * tick
		run := next - margin - now
		if run <= 0 {
			// Too close to the tick: sleep past it.
			return Burst{Run: 0, Block: next + margin - now}
		}
		return Burst{Run: run, Block: 2 * margin}
	})
}

func TestNoBoostIncreasesWakeLatency(t *testing.T) {
	// Wake the target via IPI at t=5ms, while an unboosted UNDER hog is
	// mid-way through a 25ms burst and the first tick (10ms) has not yet
	// fired. With BOOST the target preempts immediately (BOOST < UNDER);
	// without it, equal priority means FIFO — it waits for the hog's slice.
	run := func(boost bool) sim.Time {
		k := sim.NewKernel(42)
		cfg := DefaultConfig()
		cfg.BoostEnabled = boost
		cfg.TickJitter = 0
		hv := New(k, cfg, 1)
		hog := hv.NewDomain("hog", 256, 0, spinner(25*time.Millisecond))
		hog.WakeAll()
		var ranAt sim.Time = -1
		target := hv.NewDomain("target", 256, 0, ProgramFunc(func(env Env, self *VCPU) Burst {
			if ranAt < 0 {
				ranAt = env.Now()
			}
			return Burst{Run: 500 * time.Microsecond, Done: true}
		}))
		tv := target.VCPUs()[0]
		k.At(5*time.Millisecond, func() { hv.SendIPI(tv) })
		k.RunUntil(100 * time.Millisecond)
		if ranAt < 0 {
			t.Fatal("target never ran")
		}
		return ranAt - 5*time.Millisecond
	}
	withBoost, withoutBoost := run(true), run(false)
	if withBoost > time.Millisecond {
		t.Fatalf("BOOST wake latency %v, want ~IPI latency", withBoost)
	}
	if withoutBoost < 2*time.Millisecond {
		t.Fatalf("without BOOST latency %v, want to wait out the hog burst", withoutBoost)
	}
}

func TestIPIWakesHaltedVCPU(t *testing.T) {
	k, hv := newHV(t, 1)
	var ran bool
	target := hv.NewDomain("target", 256, 0, ProgramFunc(func(env Env, self *VCPU) Burst {
		ran = true
		return Burst{Run: time.Millisecond, Halt: true}
	}))
	// Colluder: run briefly, then IPI the target and halt.
	colluder := hv.NewDomain("colluder", 256, 0, ProgramFunc(func(env Env, self *VCPU) Burst {
		return Burst{Run: time.Millisecond, Halt: true, IPITo: target.VCPUs()[0]}
	}))
	colluder.WakeAll()
	k.RunUntil(100 * time.Millisecond)
	if !ran {
		t.Fatal("IPI did not wake the halted target vCPU")
	}
}

func TestPauseAndResume(t *testing.T) {
	k, hv := newHV(t, 1)
	d := hv.NewDomain("vm", 256, 0, spinner(5*time.Millisecond))
	d.WakeAll()
	k.RunUntil(100 * time.Millisecond)
	hv.PauseDomain(d)
	atPause := d.TotalRuntime()
	k.RunUntil(600 * time.Millisecond)
	if got := d.TotalRuntime(); got != atPause {
		t.Fatalf("paused domain accumulated runtime: %v -> %v", atPause, got)
	}
	hv.ResumeDomain(d)
	k.RunUntil(1100 * time.Millisecond)
	if got := d.TotalRuntime(); got <= atPause+400*time.Millisecond {
		t.Fatalf("resumed domain did not run: %v after resume (was %v)", got, atPause)
	}
}

// TestResumeAtBurstEnd pauses a spinner at the instant its burst ends, before
// the burst's end fires, so it resumes with nothing left to run. Its wake
// finds the pCPU idle, finishes that burst without running it and requeues
// the spinner, which must then be dispatched.
func TestResumeAtBurstEnd(t *testing.T) {
	k, hv := newHV(t, 1)
	d := hv.NewDomain("vm", 256, 0, spinner(5*time.Millisecond))
	k.At(5*time.Millisecond, func() { hv.PauseDomain(d) }) // ahead of the burst's end
	k.At(6*time.Millisecond, func() { hv.ResumeDomain(d) })
	d.WakeAll()
	k.RunUntil(6 * time.Millisecond)
	v := d.VCPUs()[0]
	if v.State() != StateRunning || v.Dispatches() != 2 {
		t.Fatalf("after resume: %s with %d dispatches, want running with 2", v.State(), v.Dispatches())
	}
	if msg := schedInvariant(hv); msg != "" {
		t.Fatal(msg)
	}
}

func TestDestroyDomainStopsScheduling(t *testing.T) {
	k, hv := newHV(t, 1)
	d := hv.NewDomain("vm", 256, 0, spinner(5*time.Millisecond))
	d.WakeAll()
	k.RunUntil(50 * time.Millisecond)
	hv.DestroyDomain(d)
	at := d.TotalRuntime()
	k.RunUntil(500 * time.Millisecond)
	if got := d.TotalRuntime(); got != at {
		t.Fatalf("destroyed domain kept running: %v -> %v", at, got)
	}
	if !d.Done() {
		t.Fatal("destroyed domain not marked done")
	}
}

func TestTwoPCPUsIndependent(t *testing.T) {
	k, hv := newHV(t, 2)
	a := hv.NewDomain("a", 256, 0, spinner(5*time.Millisecond))
	b := hv.NewDomain("b", 256, 1, spinner(5*time.Millisecond))
	a.WakeAll()
	b.WakeAll()
	k.RunUntil(time.Second)
	if ra := a.TotalRuntime(); ra < 990*time.Millisecond {
		t.Fatalf("a got %v on its own pCPU", ra)
	}
	if rb := b.TotalRuntime(); rb < 990*time.Millisecond {
		t.Fatalf("b got %v on its own pCPU", rb)
	}
}

func TestRecorderAndGaps(t *testing.T) {
	k, hv := newHV(t, 1)
	a := hv.NewDomain("a", 256, 0, spinner(5*time.Millisecond))
	b := hv.NewDomain("b", 256, 0, spinner(5*time.Millisecond))
	rec := NewRecorder(a)
	hv.Observe(rec)
	a.WakeAll()
	b.WakeAll()
	k.RunUntil(500 * time.Millisecond)
	segs := rec.Segments()
	if len(segs) == 0 {
		t.Fatal("recorder saw no segments")
	}
	for _, s := range segs {
		if s.VCPU.Domain() != a {
			t.Fatalf("recorder leaked segment from %v", s.VCPU)
		}
		if s.Duration() <= 0 {
			t.Fatalf("non-positive segment %v..%v", s.Start, s.End)
		}
	}
	gaps := Gaps(segs)
	if len(gaps) == 0 {
		t.Fatal("expected gaps while b shares the pCPU")
	}
	for i := 1; i < len(segs); i++ {
		if segs[i].Start < segs[i-1].End {
			t.Fatal("segments overlap")
		}
	}
}

func TestMergeAdjacent(t *testing.T) {
	v := &VCPU{}
	segs := []Segment{
		{v, 0, 2 * time.Millisecond},
		{v, 2 * time.Millisecond, 5 * time.Millisecond},
		{v, 10 * time.Millisecond, 12 * time.Millisecond},
	}
	merged := MergeAdjacent(segs, 100*time.Microsecond)
	if len(merged) != 2 {
		t.Fatalf("merged to %d segments, want 2", len(merged))
	}
	if merged[0].Duration() != 5*time.Millisecond {
		t.Fatalf("first merged segment %v, want 5ms", merged[0].Duration())
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []sim.Time {
		k := sim.NewKernel(7)
		hv := New(k, DefaultConfig(), 1)
		a := hv.NewDomain("a", 256, 0, spinner(3*time.Millisecond))
		b := hv.NewDomain("b", 256, 0, ProgramFunc(func(env Env, self *VCPU) Burst {
			return Burst{Run: 2 * time.Millisecond, Block: 4 * time.Millisecond}
		}))
		rec := NewRecorder()
		hv.Observe(rec)
		a.WakeAll()
		b.WakeAll()
		k.RunUntil(300 * time.Millisecond)
		var out []sim.Time
		for _, s := range rec.Segments() {
			out = append(out, s.Start, s.End)
		}
		return out
	}
	x, y := run(), run()
	if len(x) != len(y) {
		t.Fatalf("replay lengths differ: %d vs %d", len(x), len(y))
	}
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, x[i], y[i])
		}
	}
}

func TestCreditsStayBounded(t *testing.T) {
	k, hv := newHV(t, 1)
	cfg := hv.Config()
	a := hv.NewDomain("a", 256, 0, spinner(5*time.Millisecond))
	b := hv.NewDomain("b", 256, 0, ProgramFunc(func(env Env, self *VCPU) Burst {
		return Burst{Run: time.Millisecond, Block: 20 * time.Millisecond}
	}))
	a.WakeAll()
	b.WakeAll()
	for i := 0; i < 200; i++ {
		k.RunUntil(k.Now() + 10*time.Millisecond)
		for _, d := range hv.Domains() {
			for _, v := range d.VCPUs() {
				if v.Credits() > cfg.CreditCap || v.Credits() < cfg.CreditFloor {
					t.Fatalf("%v credits %d outside [%d,%d]", v, v.Credits(), cfg.CreditFloor, cfg.CreditCap)
				}
			}
		}
	}
}

func TestTimesliceBoundsSegmentLength(t *testing.T) {
	k, hv := newHV(t, 1)
	a := hv.NewDomain("a", 256, 0, spinner(500*time.Millisecond)) // wants huge bursts
	b := hv.NewDomain("b", 256, 0, spinner(500*time.Millisecond))
	rec := NewRecorder()
	hv.Observe(rec)
	a.WakeAll()
	b.WakeAll()
	k.RunUntil(2 * time.Second)
	for _, s := range rec.Segments() {
		if s.Duration() > hv.Config().Timeslice {
			t.Fatalf("segment %v exceeds timeslice %v", s.Duration(), hv.Config().Timeslice)
		}
	}
}

func TestIODeviceBlocksAndWakes(t *testing.T) {
	k, hv := newHV(t, 1)
	// One request of 20 MiB at 200 MiB/s should block the vCPU ~100ms.
	issued := false
	var doneAt sim.Time
	d := hv.NewDomain("io", 256, 0, ProgramFunc(func(env Env, self *VCPU) Burst {
		if !issued {
			issued = true
			return Burst{Run: time.Millisecond, IOBytes: 20 << 20}
		}
		doneAt = env.Now()
		return Burst{Done: true}
	}))
	d.WakeAll()
	k.RunUntil(time.Second)
	if !d.Done() {
		t.Fatal("IO program never completed")
	}
	if doneAt < 95*time.Millisecond || doneAt > 130*time.Millisecond {
		t.Fatalf("IO wake at %v, want ~101ms", doneAt)
	}
	if hv.Disk().Requests() != 1 || hv.Disk().ServedBytes() != 20<<20 {
		t.Fatalf("device accounting: %d reqs, %d bytes", hv.Disk().Requests(), hv.Disk().ServedBytes())
	}
}

func TestIODeviceFIFOContention(t *testing.T) {
	k, hv := newHV(t, 1)
	// Two IO-bound vCPUs share the disk: each gets roughly half the device
	// throughput, and the device saturates.
	mk := func(name string) *Domain {
		count := 0
		d := hv.NewDomain(name, 256, 0, ProgramFunc(func(env Env, self *VCPU) Burst {
			count++
			return Burst{Run: 100 * time.Microsecond, IOBytes: 4 << 20}
		}))
		d.WakeAll()
		return d
	}
	mk("a")
	mk("b")
	k.RunUntil(2 * time.Second)
	util := hv.Disk().Utilization()
	if util < 0.9 {
		t.Fatalf("disk utilization %.2f with two IO-bound VMs, want ~1", util)
	}
	// ~200MB/s for 2s ≈ 400 MB served.
	served := float64(hv.Disk().ServedBytes()) / (1 << 20)
	if served < 350 || served > 450 {
		t.Fatalf("served %.0f MiB in 2s at 200 MiB/s", served)
	}
}

func TestIOWakeGetsBoost(t *testing.T) {
	// An IO completion wakes the vCPU with BOOST, so it preempts a
	// CPU-bound co-tenant promptly (before the first tick, both UNDER).
	k := sim.NewKernel(42)
	cfg := DefaultConfig()
	cfg.TickJitter = 0
	hv := New(k, cfg, 1)
	hog := hv.NewDomain("hog", 256, 0, spinner(25*time.Millisecond))
	hog.WakeAll()
	var wokeAt, ranAt sim.Time
	first := true
	d := hv.NewDomain("io", 256, 0, ProgramFunc(func(env Env, self *VCPU) Burst {
		if first {
			first = false
			return Burst{Run: 200 * time.Microsecond, IOBytes: 1 << 20} // ~5ms IO
		}
		wokeAt = self.LastWake()
		ranAt = env.Now()
		return Burst{Done: true}
	}))
	d.WakeAll()
	k.RunUntil(100 * time.Millisecond)
	if !d.Done() {
		t.Fatal("IO program never completed")
	}
	if lat := ranAt - wokeAt; lat > time.Millisecond {
		t.Fatalf("IO wake latency %v; boost not applied", lat)
	}
}
