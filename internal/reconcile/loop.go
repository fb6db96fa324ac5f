package reconcile

import (
	"time"

	"cloudmonatt/internal/metrics"
	"cloudmonatt/internal/obs"
)

// Result tells the loop what to do after a successful pass.
type Result struct {
	// Requeue asks for another pass soon, under the key's rate limiter
	// (exponential backoff). Use it for "made progress but not converged".
	Requeue bool
	// RequeueAfter schedules the next pass at a fixed virtual-time offset
	// (e.g. periodic re-attestation). Ignored when Requeue is set.
	RequeueAfter time.Duration
}

// Reconciler converges one key's observed state toward its desired state.
// It must be idempotent: the loop guarantees per-key serialization but
// will happily call it again for the same level.
type Reconciler func(key string) (Result, error)

// LoopConfig assembles a reconcile loop.
type LoopConfig struct {
	Queue QueueConfig
	// Reconcile is the convergence function (required).
	Reconcile Reconciler
	// Metrics receives the loop's pass-latency summary and requeue/error
	// counters (reconcile/*). Optional.
	Metrics *metrics.Registry
	// Obs, when set, records one span per reconcile pass under the given
	// Entity (default "reconcile").
	Obs    *obs.Store
	Entity string
	// MaxPassesPerDrain bounds a single ProcessReady call so a reconciler
	// that keeps re-adding its own key cannot wedge the caller. Default
	// 256.
	MaxPassesPerDrain int
}

// Loop drives Reconcilers to convergence. It runs no goroutines of its
// own: callers invoke ProcessReady from whatever context drives the
// virtual clock (a nova api request, the testbed's RunFor pump), keeping
// the whole control plane deterministic under the discrete-event kernel.
type Loop struct {
	q      *Queue
	rec    Reconciler
	tracer *obs.Tracer
	now    func() time.Duration
	max    int

	passSum      *metrics.Summary
	passes       *metrics.Counter
	requeues     *metrics.Counter
	requeueAfter *metrics.Counter
	errs         *metrics.Counter
	depthGauge   *metrics.IntSummary
	queueDrops   *metrics.Counter
	lastDropped  uint64
}

// NewLoop builds a loop. cfg.Queue.Now is required.
func NewLoop(cfg LoopConfig) *Loop {
	if cfg.MaxPassesPerDrain <= 0 {
		cfg.MaxPassesPerDrain = 256
	}
	entity := cfg.Entity
	if entity == "" {
		entity = "reconcile"
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Loop{
		q:            NewQueue(cfg.Queue),
		rec:          cfg.Reconcile,
		tracer:       obs.NewTracer(cfg.Obs, entity, cfg.Queue.Now),
		now:          cfg.Queue.Now,
		max:          cfg.MaxPassesPerDrain,
		passSum:      reg.Summary("reconcile/pass-latency"),
		passes:       reg.Counter("reconcile/passes"),
		requeues:     reg.Counter("reconcile/requeues"),
		requeueAfter: reg.Counter("reconcile/requeues-after"),
		errs:         reg.Counter("reconcile/pass-errors"),
		depthGauge:   reg.IntSummary("reconcile/queue-depth"),
		queueDrops:   reg.Counter("reconcile/queue-dropped"),
	}
}

// Enqueue marks key for reconciliation now.
func (lp *Loop) Enqueue(key string) { lp.q.Add(key) }

// Forget resets key's backoff (e.g. when its desired state is deleted).
func (lp *Loop) Forget(key string) { lp.q.Forget(key) }

// ProcessReady promotes due delayed keys and drains the ready list,
// running one reconcile pass per key (per-key serialized; a key re-added
// mid-pass reruns). It returns the number of passes executed.
func (lp *Loop) ProcessReady() int {
	lp.q.Promote()
	n := 0
	for n < lp.max {
		key, ok := lp.q.Get()
		if !ok {
			break
		}
		lp.pass(key)
		n++
		// A pass may have advanced the virtual clock past more deadlines.
		lp.q.Promote()
	}
	lp.depthGauge.Observe(int64(lp.q.Len()))
	if d := lp.q.Dropped(); d > lp.lastDropped {
		lp.queueDrops.Add(int64(d - lp.lastDropped))
		lp.lastDropped = d
	}
	return n
}

// pass runs one reconcile pass for key and applies its requeue decision.
func (lp *Loop) pass(key string) {
	sp := lp.tracer.Start(obs.SpanContext{}, "reconcile")
	sp.SetVM(key, "")
	start := lp.now()
	res, err := lp.rec(key)
	lp.passSum.Observe(lp.now() - start)
	lp.passes.Inc()
	lp.q.Done(key)
	if err != nil {
		lp.errs.Inc()
		lp.requeues.Inc()
		lp.q.AddRateLimited(key)
		sp.EndErr(err)
		return
	}
	lp.q.Forget(key)
	switch {
	case res.Requeue:
		lp.requeues.Inc()
		lp.q.AddRateLimited(key)
		sp.End("requeued")
	case res.RequeueAfter > 0:
		lp.requeueAfter.Inc()
		lp.q.AddAfter(key, res.RequeueAfter)
		sp.End("requeue-after")
	default:
		sp.End("")
	}
}

// NextDue reports the earliest virtual time a delayed key becomes ready.
func (lp *Loop) NextDue() (time.Duration, bool) { return lp.q.NextDue() }

// Len reports the number of keys ready to reconcile.
func (lp *Loop) Len() int { return lp.q.Len() }

// DelayedLen reports the number of keys waiting on timers.
func (lp *Loop) DelayedLen() int { return lp.q.DelayedLen() }

// Dropped reports how many ready keys the queue bound has evicted.
func (lp *Loop) Dropped() uint64 { return lp.q.Dropped() }

// Failures reports key's consecutive-failure count (its backoff level).
func (lp *Loop) Failures(key string) int { return lp.q.Failures(key) }
