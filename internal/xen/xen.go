// Package xen models a Type-I (Xen-like) hypervisor with the classic
// "credit" scheduler, faithfully enough to reproduce the two scheduler
// attacks in the CloudMonatt paper (ISCA'15 §4.4, §4.5):
//
//   - credits are debited by *sampling*: every tick (10 ms) the vCPU that
//     happens to be running pays CreditsPerTick, so a vCPU that runs in
//     short bursts timed between ticks is never charged;
//   - every accounting period (30 ms) active vCPUs earn a weight-
//     proportional share of credits, capped at CreditCap;
//   - a vCPU with positive credits is UNDER, otherwise OVER;
//   - a vCPU that wakes while UNDER enters BOOST priority and preempts
//     lower-priority vCPUs — the lever used by both the covert channel
//     (IPI-timed sender bursts) and the availability attack (IPI ping-pong).
//
// The model runs on the deterministic discrete-event kernel in internal/sim,
// so a 2-minute experiment executes in microseconds and replays bit-for-bit.
package xen

import (
	"fmt"
	"slices"
	"time"

	"cloudmonatt/internal/sim"
)

// Priority is a scheduling class. Lower numeric value schedules first.
type Priority int

// Scheduling classes of the credit scheduler.
const (
	PrioBoost Priority = iota // transient post-wakeup priority
	PrioUnder                 // has credits remaining
	PrioOver                  // exhausted its credits
	numPrios
)

// String returns the Xen name of the priority class.
func (p Priority) String() string {
	switch p {
	case PrioBoost:
		return "BOOST"
	case PrioUnder:
		return "UNDER"
	case PrioOver:
		return "OVER"
	}
	return fmt.Sprintf("Priority(%d)", int(p))
}

// VCPUState tracks what a virtual CPU is currently doing.
type VCPUState int

// States of a vCPU.
const (
	StateBlocked  VCPUState = iota // waiting for a timer or an IPI
	StateRunnable                  // on a run queue
	StateRunning                   // currently on a pCPU
	StateDone                      // program finished; never runs again
)

// String returns a short state name.
func (s VCPUState) String() string {
	switch s {
	case StateBlocked:
		return "blocked"
	case StateRunnable:
		return "runnable"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	}
	return fmt.Sprintf("VCPUState(%d)", int(s))
}

// Config holds the scheduler parameters. DefaultConfig matches classic Xen
// credit1 defaults.
type Config struct {
	TickPeriod     sim.Time // credit-debit sampling period (10 ms in Xen)
	AcctPeriod     sim.Time // credit redistribution period (30 ms in Xen)
	Timeslice      sim.Time // maximum uninterrupted run of one vCPU (30 ms)
	CreditsPerTick int      // debit taken from the vCPU sampled at a tick
	CreditsPerAcct int      // credits distributed per pCPU per AcctPeriod
	CreditCap      int      // accumulation ceiling (idle vCPUs bank credits)
	CreditFloor    int      // debt floor
	BoostEnabled   bool     // grant BOOST on wakeup of an UNDER vCPU
	IPILatency     sim.Time // delivery delay of an inter-processor interrupt
	TickJitter     sim.Time // uniform jitter width applied to each tick (breaks
	// pathological resonance between deterministic burst patterns and the
	// sampling grid; real hardware timers have comparable noise)

	// ExactAccounting replaces credit1's tick-*sampled* debiting with exact
	// per-run charging (credits ∝ CPU time consumed). This is the defense
	// both paper attacks are vulnerable to in reverse: with exact charging
	// a tick-evading vCPU can no longer hoard credits, so it drops to OVER
	// like any other hog. Used by the accounting ablation bench.
	ExactAccounting bool

	// DiskBytesPerSec is the service rate of the server's shared storage
	// device (the contended resource of the Resource-Freeing Attack).
	DiskBytesPerSec float64
}

// DefaultConfig returns the Xen credit1 defaults used throughout the paper's
// experiments.
func DefaultConfig() Config {
	return Config{
		TickPeriod:      10 * time.Millisecond,
		AcctPeriod:      30 * time.Millisecond,
		Timeslice:       30 * time.Millisecond,
		CreditsPerTick:  100,
		CreditsPerAcct:  300,
		CreditCap:       300,
		CreditFloor:     -300,
		BoostEnabled:    true,
		IPILatency:      50 * time.Microsecond,
		TickJitter:      400 * time.Microsecond,
		DiskBytesPerSec: 200 << 20, // 200 MB/s shared storage
	}
}

// Burst describes what a vCPU's program wants to do next. The scheduler
// calls Program.NextBurst when the vCPU is dispatched with no work pending.
type Burst struct {
	Run   sim.Time // CPU time to consume before the next transition
	Block sim.Time // after running, sleep this long, then wake (self-timer)
	Halt  bool     // after running, halt until an external wake (IPI)
	Done  bool     // after running, the program is finished for good

	// IOBytes, when positive, submits a request of that size to the shared
	// storage device after the run; the vCPU blocks until the device
	// completes it (FIFO behind other VMs' requests) and wakes like any IO
	// interrupt. Takes precedence over Block/Halt.
	IOBytes int

	// BusLocks is the number of locked (bus-serializing) memory operations
	// the burst executes — atomic read-modify-writes spanning cache lines.
	// Benign software issues a trickle; the memory-bus covert channel (Wu
	// et al., paper ref [44]) modulates dense lock bursts to signal bits.
	// Counts are observable via the bus-lock performance counter.
	BusLocks int

	// IPITo, when non-nil, sends an inter-processor interrupt to the target
	// vCPU once this burst's Run completes (or immediately for Run == 0).
	// Colluding attack vCPUs use this to hand the BOOST baton around.
	IPITo *VCPU
}

// Env is the limited view of the hypervisor a Program may use to decide its
// next burst.
type Env interface {
	// Now returns the current virtual time.
	Now() sim.Time
	// Rand returns the deterministic random source of the simulation.
	Rand() *sim.Rand
	// TickPeriod returns the scheduler's credit-sampling period; attack
	// programs use it to time bursts between ticks.
	TickPeriod() sim.Time
}

// Program supplies the compute/sleep behaviour of one vCPU.
type Program interface {
	// NextBurst is invoked when the vCPU is dispatched with no pending work.
	NextBurst(env Env, self *VCPU) Burst
}

// ProgramFunc adapts a function to the Program interface.
type ProgramFunc func(env Env, self *VCPU) Burst

// NextBurst calls f.
func (f ProgramFunc) NextBurst(env Env, self *VCPU) Burst { return f(env, self) }

// Domain is a virtual machine: a named set of vCPUs with a scheduling weight.
type Domain struct {
	ID     int
	Name   string
	Weight int

	hv    *Hypervisor
	vcpus []*VCPU
}

// VCPUs returns the domain's virtual CPUs.
func (d *Domain) VCPUs() []*VCPU { return d.vcpus }

// TotalRuntime returns the accumulated CPU time over all the domain's vCPUs.
func (d *Domain) TotalRuntime() sim.Time {
	var t sim.Time
	for _, v := range d.vcpus {
		t += v.TotalRuntime()
	}
	return t
}

// Done reports whether every vCPU of the domain has finished its program.
func (d *Domain) Done() bool {
	for _, v := range d.vcpus {
		if v.state != StateDone {
			return false
		}
	}
	return len(d.vcpus) > 0
}

// DoneAt returns the latest completion time across the domain's vCPUs, or
// zero and false if any vCPU is still live.
func (d *Domain) DoneAt() (sim.Time, bool) {
	if !d.Done() {
		return 0, false
	}
	var max sim.Time
	for _, v := range d.vcpus {
		if v.doneAt > max {
			max = v.doneAt
		}
	}
	return max, true
}

// VCPU is one virtual CPU, pinned to a physical CPU.
type VCPU struct {
	dom     *Domain
	id      int
	pcpu    *PCPU
	program Program

	state   VCPUState
	prio    Priority
	credits int
	boosted bool
	tok     uint64 // enqueue token; bumping it invalidates stale queue entries

	remaining  sim.Time // unfinished part of the current burst
	pending    Burst    // burst currently being executed
	havePend   bool
	runStart   sim.Time // when the current dispatch began
	lastWake   sim.Time // when the vCPU last became runnable
	totalRun   sim.Time
	doneAt     sim.Time
	wakeEvent  sim.Event
	dispatches uint64

	// The vCPU's wake event (timer, IO completion or IPI), bound once so
	// scheduling one allocates nothing.
	wakeFn func()
}

// Domain returns the owning domain.
func (v *VCPU) Domain() *Domain { return v.dom }

// ID returns the per-domain vCPU index.
func (v *VCPU) ID() int { return v.id }

// PCPU returns the physical CPU this vCPU is pinned to.
func (v *VCPU) PCPU() *PCPU { return v.pcpu }

// State returns the current scheduling state.
func (v *VCPU) State() VCPUState { return v.state }

// Priority returns the current scheduling class (BOOST if boosted).
func (v *VCPU) Priority() Priority {
	if v.boosted {
		return PrioBoost
	}
	return v.prio
}

// Credits returns the current credit balance.
func (v *VCPU) Credits() int { return v.credits }

// TotalRuntime returns the accumulated CPU time, including the in-progress
// slice if the vCPU is running right now.
func (v *VCPU) TotalRuntime() sim.Time {
	t := v.totalRun
	if v.state == StateRunning {
		t += v.hv().k.Now() - v.runStart
	}
	return t
}

// Dispatches returns how many times this vCPU has been placed on a pCPU.
func (v *VCPU) Dispatches() uint64 { return v.dispatches }

// LastWake returns when the vCPU most recently became runnable; together
// with run-segment start times this yields wakeup-to-dispatch latency.
func (v *VCPU) LastWake() sim.Time { return v.lastWake }

// String identifies the vCPU as domain/vcpuN.
func (v *VCPU) String() string { return fmt.Sprintf("%s/v%d", v.dom.Name, v.id) }

func (v *VCPU) hv() *Hypervisor { return v.dom.hv }

// RunSegmentObserver receives every completed run segment of a traced vCPU.
// The Performance Monitor Unit and the VMM Profile Tool subscribe here.
type RunSegmentObserver interface {
	ObserveRunSegment(v *VCPU, start, end sim.Time)
}

// BusLockObserver receives the locked-operation count of each completed
// burst (the bus-lock performance counter's event stream).
type BusLockObserver interface {
	ObserveBusLocks(v *VCPU, at sim.Time, count int)
}

// BusLockFunc adapts a function to BusLockObserver.
type BusLockFunc func(v *VCPU, at sim.Time, count int)

// ObserveBusLocks calls f.
func (f BusLockFunc) ObserveBusLocks(v *VCPU, at sim.Time, count int) { f(v, at, count) }

// RunSegmentFunc adapts a function to RunSegmentObserver.
type RunSegmentFunc func(v *VCPU, start, end sim.Time)

// ObserveRunSegment calls f.
func (f RunSegmentFunc) ObserveRunSegment(v *VCPU, start, end sim.Time) { f(v, start, end) }

// Hypervisor owns the pCPUs, domains and the scheduler state.
type Hypervisor struct {
	k            *sim.Kernel
	cfg          Config
	pcpus        []*PCPU
	domains      []*Domain
	disk         *IODevice
	nextDomID    int
	observers    observerList[RunSegmentObserver]
	busObservers observerList[BusLockObserver]
}

// observerList keeps observers in registration order. add's remover deletes
// that registration alone and does nothing when called again.
type observerList[T any] struct {
	list []T
	ids  []uint64
	last uint64
}

func (l *observerList[T]) add(o T) (remove func()) {
	l.last++
	id := l.last
	l.list, l.ids = append(l.list, o), append(l.ids, id)
	return func() {
		if i := slices.Index(l.ids, id); i >= 0 {
			l.list, l.ids = slices.Delete(l.list, i, i+1), slices.Delete(l.ids, i, i+1)
		}
	}
}

// New creates a hypervisor with n physical CPUs on the given kernel and
// starts the periodic tick and accounting events.
func New(k *sim.Kernel, cfg Config, nPCPUs int) *Hypervisor {
	if nPCPUs <= 0 {
		panic("xen: need at least one pCPU")
	}
	hv := &Hypervisor{k: k, cfg: cfg}
	if cfg.DiskBytesPerSec <= 0 {
		cfg.DiskBytesPerSec = 200 << 20
		hv.cfg.DiskBytesPerSec = cfg.DiskBytesPerSec
	}
	hv.disk = newIODevice(hv, cfg.DiskBytesPerSec)
	for i := 0; i < nPCPUs; i++ {
		p := &PCPU{id: i, hv: hv}
		p.tickFn, p.acctFn, p.sliceEndFn = p.tickEvent, p.acctEvent, p.sliceEnd
		hv.pcpus = append(hv.pcpus, p)
		p.scheduleTick()
		p.scheduleAcct()
	}
	return hv
}

// Kernel returns the simulation kernel driving this hypervisor.
func (hv *Hypervisor) Kernel() *sim.Kernel { return hv.k }

// Config returns the scheduler configuration.
func (hv *Hypervisor) Config() Config { return hv.cfg }

// PCPUs returns the physical CPUs.
func (hv *Hypervisor) PCPUs() []*PCPU { return hv.pcpus }

// Domains returns the created domains that have not been destroyed.
func (hv *Hypervisor) Domains() []*Domain { return hv.domains }

// Observe registers an observer for completed run segments of all vCPUs and
// returns its remover. Call both under the lock the kernel runs under.
func (hv *Hypervisor) Observe(o RunSegmentObserver) (remove func()) { return hv.observers.add(o) }

// ObserveBus is Observe for bus-lock counts.
func (hv *Hypervisor) ObserveBus(o BusLockObserver) (remove func()) { return hv.busObservers.add(o) }

// Now returns the current virtual time (Env).
func (hv *Hypervisor) Now() sim.Time { return hv.k.Now() }

// Rand returns the simulation's random source (Env).
func (hv *Hypervisor) Rand() *sim.Rand { return hv.k.Rand() }

// TickPeriod returns the credit-sampling period (Env).
func (hv *Hypervisor) TickPeriod() sim.Time { return hv.cfg.TickPeriod }

var _ Env = (*Hypervisor)(nil)

// NewDomain creates a domain with the given scheduling weight and one vCPU
// per program, all pinned to pCPU pin. Every vCPU starts blocked; call
// WakeAll (or send it an IPI) to make it runnable.
func (hv *Hypervisor) NewDomain(name string, weight, pin int, programs ...Program) *Domain {
	if len(programs) == 0 {
		panic("xen: domain needs at least one vCPU program")
	}
	if pin < 0 || pin >= len(hv.pcpus) {
		panic(fmt.Sprintf("xen: pin %d out of range", pin))
	}
	if weight <= 0 {
		weight = 256
	}
	d := &Domain{ID: hv.nextDomID, Name: name, Weight: weight, hv: hv}
	hv.nextDomID++
	for i, prog := range programs {
		v := &VCPU{
			dom:     d,
			id:      i,
			pcpu:    hv.pcpus[pin],
			program: prog,
			state:   StateBlocked,
			prio:    PrioUnder,
			credits: hv.cfg.CreditsPerAcct / 3, // modest initial allowance
		}
		v.wakeFn = v.wakeBoosted
		d.vcpus = append(d.vcpus, v)
	}
	hv.domains = append(hv.domains, d)
	return d
}

// WakeAll makes every blocked vCPU of the domain runnable (without BOOST),
// as the initial kick after domain creation.
func (d *Domain) WakeAll() {
	for _, v := range d.vcpus {
		if v.state == StateBlocked {
			v.wake(false)
		}
	}
}

// DestroyDomain removes the domain's vCPUs from scheduling immediately
// (used by the Termination and Migration responses) and forgets the domain,
// so the accounting walk costs what the live domains cost however many have
// come and gone.
func (hv *Hypervisor) DestroyDomain(d *Domain) {
	for _, v := range d.vcpus {
		v.retire()
	}
	if i := slices.Index(hv.domains, d); i >= 0 {
		hv.domains = slices.Delete(hv.domains, i, i+1)
	}
}

// PauseDomain blocks all runnable/running vCPUs of the domain without
// finishing their programs (Suspension response). Resume with ResumeDomain.
func (hv *Hypervisor) PauseDomain(d *Domain) {
	for _, v := range d.vcpus {
		v.pause()
	}
}

// ResumeDomain makes every paused (blocked, not done) vCPU runnable again.
func (hv *Hypervisor) ResumeDomain(d *Domain) {
	d.WakeAll()
}
