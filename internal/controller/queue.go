package controller

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"cloudmonatt/internal/fifo"
	"cloudmonatt/internal/metrics"
)

// The reconcile loop's limits. Delays are in virtual time.
const (
	// queueBound caps the VMs waiting in the ready list; past it the
	// oldest is dropped (and counted). The level-triggered model makes a
	// drop safe: a dropped VM is re-added the next time any event observes
	// it off its desired state.
	queueBound = 1024
	// backoffBase and backoffCap shape the per-VM backoff after a failed
	// pass: backoffBase << (failures-1), capped at backoffCap.
	backoffBase = 100 * time.Millisecond
	backoffCap  = time.Minute
	// maxPassesPerDrain bounds one ReconcileNow, so a pass that keeps
	// re-adding its own VM cannot wedge the caller.
	maxPassesPerDrain = 256
)

// workQueue is the reconcile loop's bounded, deduplicating queue of VM ids,
// with per-VM serialization and virtual-time delayed requeues. It keeps
// the Kubernetes workqueue contract: a VM is held by at most one pass at a
// time; adds arriving while it is being processed mark it dirty so it runs
// exactly one more pass; duplicate adds collapse. It also carries the
// loop's reconcile/* metrics, registered up front so /metrics lists them
// from the start.
type workQueue struct {
	now func() time.Duration

	mu         sync.Mutex
	ready      fifo.Queue[string]       // runnable VMs, at most queueBound
	queued     map[string]bool          // VM is in ready
	processing map[string]bool          // VM is held by a pass
	dirty      map[string]bool          // re-add after the current pass
	delayed    map[string]time.Duration // VM -> virtual due time
	failures   map[string]int           // consecutive failed passes
	due        []dueVM                  // promote's scratch, reused

	passLatency   *metrics.Summary[time.Duration]
	passes        *metrics.Counter
	requeues      *metrics.Counter
	requeuesAfter *metrics.Counter
	passErrors    *metrics.Counter
	depth         *metrics.Summary[int64]
	dropped       *metrics.Counter
}

// dueVM is one delayed VM that has fallen due.
type dueVM struct {
	at  time.Duration
	vid string
}

func newWorkQueue(now func() time.Duration, reg *metrics.Registry) *workQueue {
	return &workQueue{
		now:           now,
		ready:         fifo.New[string](queueBound),
		queued:        make(map[string]bool),
		processing:    make(map[string]bool),
		dirty:         make(map[string]bool),
		delayed:       make(map[string]time.Duration),
		failures:      make(map[string]int),
		passLatency:   reg.Summary("reconcile/pass-latency"),
		passes:        reg.Counter("reconcile/passes"),
		requeues:      reg.Counter("reconcile/requeues"),
		requeuesAfter: reg.Counter("reconcile/requeues-after"),
		passErrors:    reg.Counter("reconcile/pass-errors"),
		depth:         reg.IntSummary("reconcile/queue-depth"),
		dropped:       reg.Counter("reconcile/queue-dropped"),
	}
}

// add marks vid as needing a pass now. An add supersedes a pending delayed
// retry; a VM already ready is not duplicated; a VM being processed is
// marked dirty so it reruns once its pass completes.
func (q *workQueue) add(vid string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.addLocked(vid)
}

func (q *workQueue) addLocked(vid string) {
	if q.processing[vid] {
		q.dirty[vid] = true
		return
	}
	if q.queued[vid] {
		return
	}
	delete(q.delayed, vid)
	q.queued[vid] = true
	if old, evicted := q.ready.Push(vid); evicted {
		delete(q.queued, old)
		q.dropped.Inc()
	}
}

// addAfter schedules vid to become ready d from now. An earlier pending
// schedule wins, and a VM already ready is left alone (it runs sooner).
func (q *workQueue) addAfter(vid string, d time.Duration) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if d <= 0 {
		q.addLocked(vid)
		return
	}
	if q.queued[vid] {
		return
	}
	due := q.now() + d
	if prev, ok := q.delayed[vid]; ok && prev <= due {
		return
	}
	q.delayed[vid] = due
}

// retry schedules vid after a failed pass, doubling the delay with each
// consecutive failure.
func (q *workQueue) retry(vid string) {
	q.mu.Lock()
	q.failures[vid]++
	n := q.failures[vid]
	q.mu.Unlock()
	q.addAfter(vid, backoff(n))
}

// backoff is the delay before the retry that follows the n-th consecutive
// failed pass (n >= 1).
func backoff(n int) time.Duration {
	d := backoffBase
	for i := 1; i < n && d < backoffCap; i++ {
		d *= 2
	}
	return min(d, backoffCap)
}

// forget resets vid's backoff after a successful pass.
func (q *workQueue) forget(vid string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	delete(q.failures, vid)
}

// promote moves every delayed VM whose due time has arrived into the
// ready list, by due time and then vid, so a seeded run promotes VMs that
// fall due together in one order. The due list is reused scratch, so a
// promote with nothing due allocates nothing.
func (q *workQueue) promote() {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.now()
	due := q.due[:0]
	for vid, at := range q.delayed {
		if at <= now {
			due = append(due, dueVM{at, vid})
		}
	}
	if len(due) > 1 {
		slices.SortFunc(due, func(a, b dueVM) int {
			return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.vid, b.vid))
		})
	}
	for _, d := range due {
		delete(q.delayed, d.vid)
		q.addLocked(d.vid)
	}
	q.due = due[:0]
}

// get pops the next ready VM and marks it processing.
func (q *workQueue) get() (vid string, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if vid, ok = q.ready.Pop(); ok {
		delete(q.queued, vid)
		q.processing[vid] = true
	}
	return vid, ok
}

// done releases vid after a pass. If adds arrived during the pass, vid is
// requeued at once.
func (q *workQueue) done(vid string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	delete(q.processing, vid)
	if q.dirty[vid] {
		delete(q.dirty, vid)
		q.addLocked(vid)
	}
}

// nextDue returns the earliest virtual due time among delayed VMs.
func (q *workQueue) nextDue() (time.Duration, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var first time.Duration
	found := false
	for _, at := range q.delayed {
		if !found || at < first {
			first, found = at, true
		}
	}
	return first, found
}

// lens reports the number of ready VMs and of VMs waiting on a timer.
func (q *workQueue) lens() (ready, delayed int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.ready.Len(), len(q.delayed)
}
