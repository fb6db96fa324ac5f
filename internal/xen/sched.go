package xen

import (
	"fmt"

	"cloudmonatt/internal/sim"
)

// queueEntry is one runnable vCPU reference in a priority queue. Entries are
// invalidated lazily: each enqueue bumps the vCPU's token, so stale entries
// (from re-prioritisation or pause) are skipped at pop time.
type queueEntry struct {
	v   *VCPU
	tok uint64
}

// runQueue is a FIFO of queue entries: a ring over one backing array that
// only grows when more entries are queued at once than ever before. Not a
// fifo.Queue: it has no bound, and it masks by a power of two per event.
type runQueue struct {
	buf     []queueEntry // len(buf) is zero or a power of two
	head, n int
}

func (q *runQueue) push(e queueEntry) {
	if q.n == len(q.buf) {
		grown := make([]queueEntry, max(8, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = e
	q.n++
}

func (q *runQueue) drop() {
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
}

// PCPU is one physical CPU with its three-priority run queue.
type PCPU struct {
	id      int
	hv      *Hypervisor
	runq    [numPrios]runQueue
	current *VCPU
	endEv   sim.Event // burst/timeslice expiry of the current vCPU
	live    []*VCPU   // acct's scratch list, reused between periods

	// The pCPU's three events, bound once so scheduling one allocates nothing.
	tickFn, acctFn, sliceEndFn func()

	idleTime    sim.Time
	idleSince   sim.Time
	ticks       uint64
	nextTickDue sim.Time // nominal (unjittered) time of the next tick
}

// ID returns the physical CPU index.
func (p *PCPU) ID() int { return p.id }

// IdleTime returns the accumulated time this pCPU spent with no runnable vCPU.
func (p *PCPU) IdleTime() sim.Time {
	t := p.idleTime
	if p.current == nil {
		t += p.hv.k.Now() - p.idleSince
	}
	return t
}

// scheduleTick arms the next credit-sampling tick. Jitter is applied around
// the *nominal* grid (multiples of TickPeriod), not accumulated, so the grid
// stays predictable — which is precisely what tick-evading attackers rely on.
func (p *PCPU) scheduleTick() {
	p.nextTickDue += p.hv.cfg.TickPeriod
	due := p.nextTickDue
	if j := p.hv.cfg.TickJitter; j > 0 {
		due += sim.Time(p.hv.k.Rand().Int63n(int64(j))) - j/2
	}
	if now := p.hv.k.Now(); due < now {
		due = now
	}
	p.hv.k.At(due, p.tickFn)
}

func (p *PCPU) scheduleAcct() { p.hv.k.After(p.hv.cfg.AcctPeriod, p.acctFn) }

// tickEvent and acctEvent are the periodic events: do the work, then re-arm.
func (p *PCPU) tickEvent() {
	p.tick()
	p.scheduleTick()
}

func (p *PCPU) acctEvent() {
	p.acct()
	p.scheduleAcct()
}

// tick implements sampled credit debiting: whoever runs at the tick instant
// pays CreditsPerTick and loses any BOOST. A vCPU that times its bursts
// between ticks is never charged — the root cause of both paper attacks.
func (p *PCPU) tick() {
	p.ticks++
	v := p.current
	if v == nil {
		return
	}
	if !p.hv.cfg.ExactAccounting {
		v.credits -= p.hv.cfg.CreditsPerTick
		if v.credits < p.hv.cfg.CreditFloor {
			v.credits = p.hv.cfg.CreditFloor
		}
	}
	v.boosted = false
	if v.credits <= 0 {
		v.prio = PrioOver
	}
	p.maybePreemptCurrent()
}

// acct redistributes credits every accounting period: each live vCPU pinned
// here earns a weight-proportional share, capped at CreditCap, and its
// UNDER/OVER class is recomputed.
func (p *PCPU) acct() {
	var weights float64
	live := p.live[:0]
	for _, d := range p.hv.domains {
		perVCPU := float64(d.Weight) / float64(len(d.vcpus))
		for _, v := range d.vcpus {
			if v.pcpu == p && v.state != StateDone {
				live = append(live, v)
				weights += perVCPU
			}
		}
	}
	p.live = live
	if len(live) == 0 {
		return
	}
	for _, v := range live {
		share := d2w(v.dom) / weights * float64(p.hv.cfg.CreditsPerAcct)
		v.credits += int(share)
		if v.credits > p.hv.cfg.CreditCap {
			v.credits = p.hv.cfg.CreditCap
		}
		if v.credits > 0 {
			v.prio = PrioUnder
		} else {
			v.prio = PrioOver
		}
		if v.state == StateRunnable {
			v.requeue()
		}
	}
	p.maybePreemptCurrent()
}

func d2w(d *Domain) float64 { return float64(d.Weight) / float64(len(d.vcpus)) }

// maybePreemptCurrent preempts the running vCPU if a strictly higher-priority
// vCPU is waiting on the run queue.
func (p *PCPU) maybePreemptCurrent() {
	if p.current == nil {
		p.pickNext()
		return
	}
	if head, _ := p.peek(); head != nil && head.Priority() < p.current.Priority() {
		p.preempt()
		p.pickNext()
	}
}

// peek returns the highest-priority valid queued vCPU (nil when there is
// none) and the queue it heads, dropping the stale entries in front of it.
func (p *PCPU) peek() (*VCPU, *runQueue) {
	for prio := range p.runq {
		q := &p.runq[prio]
		for ; q.n > 0; q.drop() {
			if e := q.buf[q.head]; e.tok == e.v.tok && e.v.state == StateRunnable {
				return e.v, q
			}
		}
	}
	return nil, nil
}

// pop removes and returns the next vCPU to dispatch, or nil.
func (p *PCPU) pop() *VCPU {
	v, q := p.peek()
	if v != nil {
		q.drop()
	}
	return v
}

// enqueue places a runnable vCPU at the tail of its priority queue.
func (p *PCPU) enqueue(v *VCPU) {
	v.tokBump()
	p.runq[v.Priority()].push(queueEntry{v, v.tok})
}

// requeue refreshes a queued vCPU's position after its priority changed.
func (v *VCPU) requeue() {
	v.pcpu.enqueue(v)
}

func (v *VCPU) tokBump() { v.tok++ }

// pickNext dispatches the best runnable vCPU, or idles the pCPU.
func (p *PCPU) pickNext() {
	if p.current != nil {
		return
	}
	for {
		v := p.pop()
		if v == nil {
			return
		}
		if p.dispatch(v) {
			return
		}
		// dispatch consumed a zero-run administrative burst; try again.
	}
}

// dispatch puts v on the pCPU. It returns false if the vCPU's burst had no
// CPU time to consume (pure IPI/halt/done transitions), in which case the
// caller should pick another vCPU.
func (p *PCPU) dispatch(v *VCPU) bool {
	now := p.hv.k.Now()
	if !v.havePend {
		v.pending = v.program.NextBurst(p.hv, v)
		b := &v.pending
		if b.Run < 0 {
			panic(fmt.Sprintf("xen: %s returned negative Run %v", v, b.Run))
		}
		if b.Run == 0 && !b.Halt && !b.Done && b.Block == 0 && b.IOBytes == 0 {
			panic(fmt.Sprintf("xen: %s returned a no-op burst (would livelock)", v))
		}
		v.havePend = true
		v.remaining = b.Run
	}
	if v.remaining == 0 {
		v.finishBurst()
		return false
	}
	v.state = StateRunning
	v.runStart = now
	v.dispatches++
	p.current = v
	p.idleTime += now - p.idleSince
	p.idleSince = now
	runFor := v.remaining
	if runFor > p.hv.cfg.Timeslice {
		runFor = p.hv.cfg.Timeslice
	}
	p.endEv = p.hv.k.After(runFor, p.sliceEndFn)
	return true
}

// sliceEnd fires when the current vCPU's burst completes or its timeslice
// expires.
func (p *PCPU) sliceEnd() {
	v := p.current
	if v == nil {
		return
	}
	p.accountRun(v)
	p.current = nil
	p.idleSince = p.hv.k.Now()
	p.endEv = sim.Event{}
	v.state = StateRunnable
	if v.remaining <= 0 {
		v.finishBurst()
	} else {
		// Timeslice expired: back to the tail of its class.
		p.enqueue(v)
	}
	p.pickNext()
}

// preempt removes the current vCPU from the pCPU mid-burst and requeues it.
func (p *PCPU) preempt() {
	v := p.current
	if v == nil {
		return
	}
	p.endEv.Cancel()
	p.endEv = sim.Event{}
	p.accountRun(v)
	p.current = nil
	p.idleSince = p.hv.k.Now()
	v.state = StateRunnable
	if v.remaining <= 0 {
		v.finishBurst()
		return
	}
	p.enqueue(v)
}

// accountRun charges the elapsed run to the vCPU and publishes the segment.
func (p *PCPU) accountRun(v *VCPU) {
	now := p.hv.k.Now()
	start := v.runStart
	elapsed := now - start
	if elapsed <= 0 {
		return
	}
	v.runStart = now // make repeated accounting of the same window a no-op
	v.totalRun += elapsed
	v.remaining -= elapsed
	if p.hv.cfg.ExactAccounting {
		charge := int(int64(elapsed) * int64(p.hv.cfg.CreditsPerTick) / int64(p.hv.cfg.TickPeriod))
		v.credits -= charge
		if v.credits < p.hv.cfg.CreditFloor {
			v.credits = p.hv.cfg.CreditFloor
		}
		if v.credits <= 0 {
			v.prio = PrioOver
			v.boosted = false
		}
	}
	for _, o := range p.hv.observers.list {
		o.ObserveRunSegment(v, start, now)
	}
}

// finishBurst applies the post-run actions of the completed burst.
func (v *VCPU) finishBurst() {
	hv := v.hv()
	b := v.pending
	v.havePend = false
	v.remaining = 0
	if b.BusLocks > 0 {
		for _, o := range hv.busObservers.list {
			o.ObserveBusLocks(v, hv.k.Now(), b.BusLocks)
		}
	}
	if b.IPITo != nil {
		hv.SendIPI(b.IPITo)
	}
	switch {
	case b.Done:
		v.retire()
	case b.IOBytes > 0:
		// Block on the shared storage device; wake at completion like an IO
		// interrupt (boosting, as real IO wakeups do).
		v.state = StateBlocked
		done := hv.disk.submit(b.IOBytes)
		delay := done - hv.k.Now()
		if delay < 0 {
			delay = 0
		}
		v.wakeEvent = hv.k.After(delay, v.wakeFn)
	case b.Halt:
		v.state = StateBlocked
	case b.Block > 0:
		v.state = StateBlocked
		v.wakeEvent = hv.k.After(b.Block, v.wakeFn)
	default:
		// Yield: runnable again immediately, tail of its class.
		v.state = StateRunnable
		v.pcpu.enqueue(v)
	}
}

// SendIPI delivers an inter-processor interrupt to the target vCPU after the
// configured delivery latency. A wakeup of an UNDER vCPU grants BOOST.
func (hv *Hypervisor) SendIPI(target *VCPU) { hv.k.After(hv.cfg.IPILatency, target.wakeFn) }

// wakeBoosted is the event an IPI, the vCPU's own timer and its IO completion
// all fire. wake drops v.wakeEvent whether it is the one firing or still
// pending; cancelling the event that is firing returns at once, without
// scanning the kernel's queue.
func (v *VCPU) wakeBoosted() { v.wake(true) }

// wake transitions a blocked vCPU to runnable. When boost is true and the
// vCPU is in the UNDER class (and boosting is enabled), it enters BOOST and
// preempts any lower-priority running vCPU.
func (v *VCPU) wake(boost bool) {
	if v.state != StateBlocked {
		return // spurious wake of a live or finished vCPU
	}
	v.wakeEvent.Cancel()
	v.wakeEvent = sim.Event{}
	hv := v.hv()
	if boost && hv.cfg.BoostEnabled && v.prio == PrioUnder {
		v.boosted = true
	}
	v.state = StateRunnable
	v.lastWake = hv.k.Now()
	p := v.pcpu
	if p.current == nil {
		// An idle pCPU holds no valid queue entry (only stale ones), so v,
		// queued, would be the first popped: dispatch it directly.
		v.tokBump()
		if !p.dispatch(v) {
			p.pickNext()
		}
		return
	}
	p.enqueue(v)
	if v.Priority() < p.current.Priority() {
		p.preempt()
		p.pickNext()
	}
}

// pause blocks the vCPU wherever it is (used by the Suspension response).
// An in-progress burst is retained and resumes after ResumeDomain.
func (v *VCPU) pause() {
	switch v.state {
	case StateRunning:
		p := v.pcpu
		p.endEv.Cancel()
		p.endEv = sim.Event{}
		p.accountRun(v)
		p.current = nil
		p.idleSince = p.hv.k.Now()
		v.state = StateBlocked
		p.pickNext()
	case StateRunnable:
		v.tokBump() // invalidate queue entry
		v.state = StateBlocked
	case StateBlocked:
		v.wakeEvent.Cancel()
		v.wakeEvent = sim.Event{}
	}
}

// retire permanently removes the vCPU from scheduling.
func (v *VCPU) retire() {
	if v.state == StateDone {
		return
	}
	hv := v.hv()
	if v.state == StateRunning {
		p := v.pcpu
		p.endEv.Cancel()
		p.endEv = sim.Event{}
		p.accountRun(v)
		p.current = nil
		p.idleSince = hv.k.Now()
		defer p.pickNext()
	}
	v.wakeEvent.Cancel()
	v.wakeEvent = sim.Event{}
	v.tokBump()
	v.state = StateDone
	v.doneAt = hv.k.Now()
}
