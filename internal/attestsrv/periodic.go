package attestsrv

// The periodic monitoring engine (paper §3.2.1, §5.2, evaluated §7.2):
// "continuous security health monitoring" of every VM in the cloud. The
// original driver was a linear map scan that appraised due tasks
// sequentially; at cloud scale (the paper's pitch is whole-cloud periodic
// attestation) that is O(n) per tick with zero fan-out. This engine keeps
// the armed tasks in a min-heap keyed by next deadline, so finding the due
// set costs O(due · log n), and runs due appraisals through a bounded
// worker pool with a per-cloud-server in-flight cap, so one slow attester
// cannot starve monitoring of the rest of the fleet.
//
// Overload semantics are explicit:
//
//   - Fixed-rate scheduling: a task's next deadline is armed when it is
//     dispatched, not when its appraisal finishes, so a slow appraisal does
//     not silently stretch the monitoring interval.
//   - Shedding: when a deadline arrives while the previous appraisal of the
//     same task is still in flight, the tick is skipped and counted
//     (periodic/skipped) instead of queueing a pileup.
//   - Bounded buffers: per-task result rings drop the oldest undelivered
//     report when full and count the loss (periodic/dropped), so a customer
//     that never fetches cannot grow the server without bound.
//
// Every due deadline therefore resolves to exactly one outcome: a report
// committed to the ring, a skip, an appraisal failure, or a discard because
// the task was stopped mid-flight. The engine counts each, and the race
// test pins ticks == produced + skipped + failed + discarded.

import (
	"container/heap"
	"fmt"
	"sync"
	"time"

	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/metrics"
	"cloudmonatt/internal/obs"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/wire"
)

// PeriodicConfig tunes the periodic monitoring engine.
type PeriodicConfig struct {
	// Workers bounds how many appraisals run concurrently across all cloud
	// servers. Default 8.
	Workers int
	// ServerInflight bounds concurrent appraisals per cloud server, so a
	// slow or partitioned server consumes at most this many workers.
	// Default 2.
	ServerInflight int
	// ResultBuffer bounds each task's undelivered-result ring; the oldest
	// report is dropped (and counted) when a new one arrives at a full
	// ring. Default 64.
	ResultBuffer int
}

func (c PeriodicConfig) withDefaults() PeriodicConfig {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.ServerInflight <= 0 {
		c.ServerInflight = 2
	}
	if c.ResultBuffer <= 0 {
		c.ResultBuffer = 64
	}
	return c
}

// PeriodicEntry is one undelivered result of a periodic task: the cloud
// server I that was measured and the verdict R. An entry is not signed by
// itself; the drain that delivers it is (PeriodicBatch).
type PeriodicEntry struct {
	ServerID string
	Verdict  properties.Verdict
}

// PeriodicBatch is one drain of a task's undelivered results, with the
// loss accounting accumulated since the previous drain. The shard that
// answers the drain signs it once, [Vid, P, N2, (I, R)…, Dropped,
// Skipped]_SKa under the N2 the controller sent (Server.FetchPeriodic), so
// the loss counts and the entries' order are covered too.
type PeriodicBatch struct {
	Vid     string
	Prop    properties.Property
	N2      cryptoutil.Nonce
	Entries []PeriodicEntry
	// Dropped counts reports evicted from the bounded ring since the last
	// drain (the customer fetched too rarely for the buffer size).
	Dropped uint64
	// Skipped counts due ticks shed since the last drain because the
	// previous appraisal of this task was still in flight.
	Skipped uint64
	Sig     []byte
}

// periodicTask is one armed (vid, property) monitoring stream.
type periodicTask struct {
	vid      string
	serverID string
	prop     properties.Property
	freq     time.Duration
	random   bool // randomize each interval (Table 1's "random intervals")

	nextDue time.Duration
	heapIdx int  // position in the deadline heap; -1 when not queued
	running bool // an appraisal is in flight
	stopped bool // disarmed; in-flight results must be discarded

	// Bounded result ring: ring[head] is the oldest undelivered result.
	ring    []PeriodicEntry
	head    int
	n       int
	dropped uint64 // evictions since last drain
	skipped uint64 // shed ticks since last drain
}

// interval returns the next gap: the fixed frequency, or — in random mode —
// uniform in [freq/2, 3·freq/2], so an attacker cannot time malicious
// activity to dodge the measurement windows (paper §3.2.1, §4.4.3).
func (t *periodicTask) interval(draw func(max int64) int64) time.Duration {
	if !t.random {
		return t.freq
	}
	if t.freq/2 <= 0 {
		return t.freq
	}
	return t.freq/2 + time.Duration(draw(int64(t.freq)))
}

// push appends a result to the ring, evicting the oldest when full.
func (t *periodicTask) push(e PeriodicEntry, cap int) (evicted bool) {
	if len(t.ring) == 0 {
		t.ring = make([]PeriodicEntry, cap)
	}
	if t.n == len(t.ring) {
		t.ring[t.head] = e
		t.head = (t.head + 1) % len(t.ring)
		t.dropped++
		return true
	}
	t.ring[(t.head+t.n)%len(t.ring)] = e
	t.n++
	return false
}

// drain removes and returns all buffered results in arrival order.
func (t *periodicTask) drain() []PeriodicEntry {
	if t.n == 0 {
		return nil
	}
	out := make([]PeriodicEntry, 0, t.n)
	for i := 0; i < t.n; i++ {
		idx := (t.head + i) % len(t.ring)
		out = append(out, t.ring[idx])
		t.ring[idx] = PeriodicEntry{}
	}
	t.head, t.n = 0, 0
	return out
}

// --- deadline heap ---

// dueHeap is a min-heap of tasks ordered by nextDue (container/heap).
type dueHeap []*periodicTask

func (h dueHeap) Len() int           { return len(h) }
func (h dueHeap) Less(i, j int) bool { return h[i].nextDue < h[j].nextDue }
func (h dueHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].heapIdx = i; h[j].heapIdx = j }
func (h *dueHeap) Push(x any)        { t := x.(*periodicTask); t.heapIdx = len(*h); *h = append(*h, t) }
func (h *dueHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.heapIdx = -1
	*h = old[:n-1]
	return t
}

// --- engine ---

// appraiseFunc runs one appraisal of (vid, prop) against a cloud server,
// recording its spans under parent (the engine's per-tick root span). The
// engine keeps the report's verdict, not its signature. The Attestation
// Server injects its full appraisal path here, unsigned; benchmarks and the
// scheduler race test inject stubs.
type appraiseFunc func(parent obs.SpanContext, vid, serverID string, p properties.Property) (*wire.Report, error)

// periodicEngine is the concurrent monitoring engine.
type periodicEngine struct {
	cfg      PeriodicConfig
	now      func() time.Duration
	jitter   func(max int64) int64
	appraise appraiseFunc
	reg      *metrics.Registry
	tracer   *obs.Tracer // nil (no-op) when observability is unset

	// workerSem bounds total in-flight appraisals.
	workerSem chan struct{}

	mu        sync.Mutex
	tasks     map[string]*periodicTask
	queue     dueHeap
	serverSem map[string]chan struct{} // per-cloud-server in-flight caps
	inflight  int
}

func newPeriodicEngine(cfg PeriodicConfig, now func() time.Duration, jitter func(int64) int64, appraise appraiseFunc, reg *metrics.Registry, tracer *obs.Tracer) *periodicEngine {
	cfg = cfg.withDefaults()
	return &periodicEngine{
		cfg:       cfg,
		now:       now,
		jitter:    jitter,
		appraise:  appraise,
		reg:       reg,
		tracer:    tracer,
		workerSem: make(chan struct{}, cfg.Workers),
		tasks:     make(map[string]*periodicTask),
		serverSem: make(map[string]chan struct{}),
	}
}

// start arms (vid, prop). Re-arming an existing stream replaces it: the old
// task is stopped (any in-flight result is discarded) and its buffer is
// abandoned.
func (e *periodicEngine) start(vid, serverID string, p properties.Property, freq time.Duration, random bool) error {
	if freq <= 0 {
		return fmt.Errorf("attestsrv: periodic frequency must be positive")
	}
	t := &periodicTask{
		vid:      vid,
		serverID: serverID,
		prop:     p,
		freq:     freq,
		random:   random,
		heapIdx:  -1,
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	key := taskKey(vid, p)
	if old, ok := e.tasks[key]; ok {
		e.unlink(old)
	}
	t.nextDue = e.now() + t.interval(e.jitter)
	e.tasks[key] = t
	heap.Push(&e.queue, t)
	return nil
}

// unlink disarms a task in place: out of the heap, marked stopped so an
// in-flight appraisal discards its result. Caller holds e.mu.
func (e *periodicEngine) unlink(t *periodicTask) {
	t.stopped = true
	if t.heapIdx >= 0 {
		heap.Remove(&e.queue, t.heapIdx)
	}
}

// stop disarms (vid, prop) and returns the undelivered results with their
// loss accounting, unsigned. A missing task returns an empty batch.
func (e *periodicEngine) stop(vid string, p properties.Property) PeriodicBatch {
	e.mu.Lock()
	defer e.mu.Unlock()
	key := taskKey(vid, p)
	t, ok := e.tasks[key]
	if !ok {
		return PeriodicBatch{}
	}
	delete(e.tasks, key)
	e.unlink(t)
	return e.drainLocked(t)
}

// fetch drains the undelivered results for (vid, prop).
func (e *periodicEngine) fetch(vid string, p properties.Property) PeriodicBatch {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.tasks[taskKey(vid, p)]
	if !ok {
		return PeriodicBatch{}
	}
	return e.drainLocked(t)
}

func (e *periodicEngine) drainLocked(t *periodicTask) PeriodicBatch {
	b := PeriodicBatch{Entries: t.drain(), Dropped: t.dropped, Skipped: t.skipped}
	t.dropped, t.skipped = 0, 0
	return b
}

// PeriodicTaskState is the portable snapshot of one armed monitoring
// stream: everything a shard needs to continue the stream exactly where
// its previous owner left it — the preserved deadline (no re-jitter, so a
// handoff cannot stretch a measurement interval), the undelivered results,
// and the loss accounting. The results are unsigned: the shard that
// answers the next drain signs them with its own key.
type PeriodicTaskState struct {
	Vid      string
	ServerID string
	Prop     properties.Property
	Freq     time.Duration
	Random   bool
	NextDue  time.Duration
	Entries  []PeriodicEntry
	Dropped  uint64
	Skipped  uint64
}

// exportWhere disarms and returns every task whose VM the predicate says
// to move. In-flight appraisals of exported tasks resolve as counted
// stopped-discards here — the importing shard owns all future ticks, so
// a report landing after export would risk double delivery.
func (e *periodicEngine) exportWhere(move func(vid string) bool) []PeriodicTaskState {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []PeriodicTaskState
	for key, t := range e.tasks {
		if !move(t.vid) {
			continue
		}
		delete(e.tasks, key)
		e.unlink(t)
		out = append(out, PeriodicTaskState{
			Vid:      t.vid,
			ServerID: t.serverID,
			Prop:     t.prop,
			Freq:     t.freq,
			Random:   t.random,
			NextDue:  t.nextDue,
			Entries:  t.drain(),
			Dropped:  t.dropped,
			Skipped:  t.skipped,
		})
	}
	return out
}

// importTask arms a handed-off task at its preserved deadline. Returns
// false without touching anything if (vid, prop) is already armed here:
// that guard is what makes a retried handoff idempotent — an import can
// never double-arm a stream.
func (e *periodicEngine) importTask(st PeriodicTaskState) bool {
	if st.Freq <= 0 {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	key := taskKey(st.Vid, st.Prop)
	if _, ok := e.tasks[key]; ok {
		return false
	}
	t := &periodicTask{
		vid:      st.Vid,
		serverID: st.ServerID,
		prop:     st.Prop,
		freq:     st.Freq,
		random:   st.Random,
		nextDue:  st.NextDue,
		heapIdx:  -1,
		dropped:  st.Dropped,
		skipped:  st.Skipped,
	}
	for _, en := range st.Entries {
		if t.push(en, e.cfg.ResultBuffer) {
			e.reg.Counter("periodic/dropped").Inc()
		}
	}
	e.tasks[key] = t
	heap.Push(&e.queue, t)
	return true
}

// taskKeys lists the armed (vid, prop) keys; tests use it to assert a
// handoff conserved the task set.
func (e *periodicEngine) taskKeys() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.tasks))
	for k := range e.tasks {
		out = append(out, k)
	}
	return out
}

// rebind points a VM's tasks at its new host after a migration.
func (e *periodicEngine) rebind(vid, serverID string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, t := range e.tasks {
		if t.vid == vid {
			t.serverID = serverID
		}
	}
}

// forget disarms every task of a VM (termination).
func (e *periodicEngine) forget(vid string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for key, t := range e.tasks {
		if t.vid == vid {
			delete(e.tasks, key)
			e.unlink(t)
		}
	}
}

// nextDue returns the earliest pending deadline (heap peek, O(1)).
func (e *periodicEngine) nextDue() (time.Duration, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].nextDue, true
}

// serverSemFor returns the per-server in-flight semaphore. Caller holds
// e.mu.
func (e *periodicEngine) serverSemFor(serverID string) chan struct{} {
	sem, ok := e.serverSem[serverID]
	if !ok {
		sem = make(chan struct{}, e.cfg.ServerInflight)
		e.serverSem[serverID] = sem
	}
	return sem
}

// runDue dispatches every task whose deadline has passed to the worker
// pool, waits for the dispatched batch, and returns the reports whose
// results were committed for still-live tasks. Each popped deadline resolves to exactly one
// outcome (report, skip, failure, or stopped-discard), every one counted.
func (e *periodicEngine) runDue() []*wire.Report {
	now := e.now()
	type dispatch struct {
		t        *periodicTask
		serverID string
		sem      chan struct{}
	}
	var batch []dispatch
	e.mu.Lock()
	for len(e.queue) > 0 && e.queue[0].nextDue <= now {
		t := heap.Pop(&e.queue).(*periodicTask)
		e.reg.Counter("periodic/ticks").Inc()
		// Fixed-rate: the next deadline is armed at dispatch, so the
		// monitoring interval is not stretched by appraisal time.
		t.nextDue = now + t.interval(e.jitter)
		heap.Push(&e.queue, t)
		if t.running {
			// Previous appraisal still in flight: shed this tick. The shed
			// tick still gets a (zero-length) trace so overload is visible
			// per request, not just as a counter.
			t.skipped++
			e.reg.Counter("periodic/skipped").Inc()
			ssp := e.tracer.Start(obs.SpanContext{}, "periodic")
			ssp.SetVM(t.vid, string(t.prop))
			ssp.Annotate("engine", "skipped")
			ssp.End("skipped")
			continue
		}
		t.running = true
		batch = append(batch, dispatch{t: t, serverID: t.serverID, sem: e.serverSemFor(t.serverID)})
	}
	if len(batch) > 0 || len(e.tasks) > 0 {
		e.reg.IntSummary("periodic/due-batch").Observe(int64(len(batch)))
	}
	e.mu.Unlock()
	if len(batch) == 0 {
		return nil
	}

	var (
		wg       sync.WaitGroup
		prodMu   sync.Mutex
		produced []*wire.Report
	)
	for _, d := range batch {
		wg.Add(1)
		go func(d dispatch) {
			defer wg.Done()
			// Server slot first, pool slot second: tasks queued behind one
			// slow cloud server wait on its cap without pinning a worker.
			d.sem <- struct{}{}
			defer func() { <-d.sem }()
			e.workerSem <- struct{}{}
			defer func() { <-e.workerSem }()

			e.mu.Lock()
			e.inflight++
			e.reg.IntSummary("periodic/inflight").Observe(int64(e.inflight))
			e.mu.Unlock()

			// Each tick is its own trace: the engine, not a customer,
			// originates the request, so the root span is minted here.
			sp := e.tracer.Start(obs.SpanContext{}, "periodic")
			sp.SetVM(d.t.vid, string(d.t.prop))
			rep, err := e.appraise(sp.Context(), d.t.vid, d.serverID, d.t.prop)

			e.mu.Lock()
			e.inflight--
			d.t.running = false
			switch {
			case d.t.stopped:
				// Stopped (or replaced/forgotten) while we appraised: the
				// customer already received the final drain — never deliver
				// a report for a stopped task.
				e.reg.Counter("periodic/stopped-discards").Inc()
				sp.Annotate("engine", "stopped-discard")
				sp.End("discarded")
			case err != nil:
				e.reg.Counter("periodic/failures").Inc()
				sp.Annotate("engine", "failure")
				sp.EndErr(err)
			default:
				if d.t.push(PeriodicEntry{ServerID: d.serverID, Verdict: rep.Verdict}, e.cfg.ResultBuffer) {
					e.reg.Counter("periodic/dropped").Inc()
				}
				e.reg.Counter("periodic/produced").Inc()
				sp.Annotate("engine", "produced")
				sp.End("")
				e.mu.Unlock()
				prodMu.Lock()
				produced = append(produced, rep)
				prodMu.Unlock()
				return
			}
			e.mu.Unlock()
		}(d)
	}
	wg.Wait()
	return produced
}
