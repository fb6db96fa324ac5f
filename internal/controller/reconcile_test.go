package controller

import (
	"crypto/rand"
	"fmt"
	"strings"
	"testing"
	"time"

	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/latency"
	"cloudmonatt/internal/ledger"
	"cloudmonatt/internal/metrics"
	"cloudmonatt/internal/obs"
	"cloudmonatt/internal/rpc"
	"cloudmonatt/internal/sim"
	"cloudmonatt/internal/vclock"
	"cloudmonatt/internal/wire"
)

// fakeClock is a manually advanced virtual clock for the bare queue.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) Now() time.Duration { return c.t }

func newTestQueue(clk *fakeClock) *workQueue { return newWorkQueue(clk.Now, metrics.NewRegistry()) }

// condOf returns the condition of type t on rec (zero if absent).
func condOf(rec *vmRecord, t string) wire.Condition {
	for _, c := range rec.Conditions {
		if c.Type == t {
			return c
		}
	}
	return wire.Condition{}
}

// newLoopController builds a controller over an in-memory network with
// nothing listening and no cloud server registered, so a pass fails or
// succeeds only as the records it finds dictate.
func newLoopController(store *obs.Store, reattestEvery time.Duration) *Controller {
	return New(Config{
		Identity:      cryptoutil.MustIdentity("cloud-controller"),
		Network:       rpc.NewMemNetwork(),
		Clock:         vclock.New(sim.NewKernel(1)),
		Latency:       latency.New(1),
		Rand:          rand.Reader,
		Obs:           store,
		ReattestEvery: reattestEvery,
	})
}

func (c *Controller) installVM(rec *vmRecord) {
	c.mu.Lock()
	c.vms[rec.Vid] = rec
	c.mu.Unlock()
}

// TestQueueSerializesPerVM runs scripts over the queue. Steps: "+v" adds v,
// "<v" takes the next ready VM and requires v, "-" requires nothing ready,
// ">v" ends v's pass.
func TestQueueSerializesPerVM(t *testing.T) {
	for _, tc := range []struct{ name, script string }{
		{"duplicate adds collapse", "+a +a +b +a <a <b -"},
		{"an add during a pass reruns once", "+a <a +a +a - >a <a >a -"},
		{"a VM in a pass is not handed out again", "+a +b <a +a <b >b - >a <a"},
		{"a pass without adds does not rerun", "+a <a >a -"},
		{"a rerun queues behind waiting VMs", "+a <a +a +b >a <b <a -"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := newTestQueue(&fakeClock{})
			for i, step := range strings.Fields(tc.script) {
				switch op, vid := step[0], step[1:]; op {
				case '+':
					q.add(vid)
				case '>':
					q.done(vid)
				case '<', '-':
					if got, ok := q.get(); ok != (op == '<') || got != vid {
						t.Fatalf("step %d %q: get = %q, %v", i, step, got, ok)
					}
				}
			}
		})
	}
}

func TestQueueBoundDropsOldest(t *testing.T) {
	q := newTestQueue(&fakeClock{})
	for i := 0; i <= queueBound; i++ {
		q.add(fmt.Sprintf("vm-%04d", i))
	}
	if ready, _ := q.lens(); ready != queueBound || q.dropped.Value() != 1 {
		t.Fatalf("ready=%d dropped=%d, want %d/1", ready, q.dropped.Value(), queueBound)
	}
	if vid, _ := q.get(); vid != "vm-0001" {
		t.Fatalf("first survivor = %q, want vm-0001 (oldest dropped)", vid)
	}
	// The dropped VM is no longer queued: adding it again takes it back.
	q.add("vm-0000")
	if ready, _ := q.lens(); ready != queueBound {
		t.Fatalf("re-adding the dropped VM left ready=%d, want %d", ready, queueBound)
	}
}

func TestQueueBackoffGrowthCapAndReset(t *testing.T) {
	ms := time.Millisecond
	wants := []time.Duration{
		100 * ms, 200 * ms, 400 * ms, 800 * ms, 1600 * ms, 3200 * ms,
		6400 * ms, 12800 * ms, 25600 * ms, 51200 * ms, time.Minute, time.Minute, time.Minute,
	}
	for i, want := range wants {
		if got := backoff(i + 1); got != want {
			t.Fatalf("backoff(%d) = %v, want %v", i+1, got, want)
		}
	}
	if got := backoff(1 << 20); got != backoffCap {
		t.Fatalf("backoff(2^20) = %v, want the cap", got)
	}
	clk := &fakeClock{}
	q := newTestQueue(clk)
	q.retry("a")
	q.retry("a") // still waiting on the first, earlier retry
	if q.failures["a"] != 2 {
		t.Fatalf("failures = %d, want 2", q.failures["a"])
	}
	if due, ok := q.nextDue(); !ok || due != backoffBase {
		t.Fatalf("nextDue = %v %v, want the first retry at %v", due, ok, backoffBase)
	}
	q.forget("a")
	if q.failures["a"] != 0 {
		t.Fatal("forget did not reset backoff")
	}
}

func TestQueueAddAfterEarliestWins(t *testing.T) {
	clk := &fakeClock{}
	q := newTestQueue(clk)
	q.addAfter("late", 100*time.Millisecond)
	q.addAfter("early", 10*time.Millisecond)
	q.addAfter("early", 500*time.Millisecond) // the earlier schedule wins
	if due, ok := q.nextDue(); !ok || due != 10*time.Millisecond {
		t.Fatalf("nextDue = %v %v, want 10ms", due, ok)
	}
	q.promote()
	if ready, _ := q.lens(); ready != 0 {
		t.Fatal("a VM promoted before its due time")
	}
	clk.t = 10 * time.Millisecond
	q.promote()
	if ready, delayed := q.lens(); ready != 1 || delayed != 1 {
		t.Fatalf("after the first due: ready=%d delayed=%d, want 1/1", ready, delayed)
	}
	if vid, _ := q.get(); vid != "early" {
		t.Fatalf("promoted %q, want early", vid)
	}
	q.done("early")
	// A VM already ready ignores a schedule: it runs sooner anyway.
	q.add("ready")
	q.addAfter("ready", time.Second)
	if _, delayed := q.lens(); delayed != 1 {
		t.Fatalf("delayed = %d, want only late", delayed)
	}
	clk.t = 100 * time.Millisecond
	q.promote()
	if a, _ := q.get(); a != "ready" {
		t.Fatalf("got %q, want ready", a)
	}
	if b, _ := q.get(); b != "late" {
		t.Fatalf("got %q, want late", b)
	}
}

func TestQueueImmediateAddSupersedesDelayed(t *testing.T) {
	q := newTestQueue(&fakeClock{})
	q.addAfter("a", time.Hour)
	q.add("a")
	if ready, delayed := q.lens(); ready != 1 || delayed != 0 {
		t.Fatalf("ready=%d delayed=%d, want 1/0", ready, delayed)
	}
}

// TestQueuePromotesInSeedOrder: VMs falling due together enter the ready
// list by due time, then vid, whatever order the delayed map iterates in.
func TestQueuePromotesInSeedOrder(t *testing.T) {
	for round := 0; round < 20; round++ {
		clk := &fakeClock{}
		q := newTestQueue(clk)
		for _, vid := range []string{"vm-0006", "vm-0002", "vm-0005", "vm-0001", "vm-0004", "vm-0003"} {
			q.addAfter(vid, time.Second)
		}
		q.addAfter("vm-0009", 500*time.Millisecond)
		q.addAfter("vm-0008", 500*time.Millisecond)
		clk.t = time.Second
		q.promote()
		var got []string
		for vid, ok := q.get(); ok; vid, ok = q.get() {
			got = append(got, vid)
		}
		want := "vm-0008 vm-0009 vm-0001 vm-0002 vm-0003 vm-0004 vm-0005 vm-0006"
		if g := strings.Join(got, " "); g != want {
			t.Fatalf("round %d: promoted %s, want %s", round, g, want)
		}
	}
}

// TestPromoteAllocFree: a promote with nothing due allocates nothing.
func TestPromoteAllocFree(t *testing.T) {
	q := newTestQueue(&fakeClock{})
	for _, vid := range []string{"a", "b", "c"} {
		q.addAfter(vid, time.Hour)
	}
	if n := testing.AllocsPerRun(100, q.promote); n != 0 {
		t.Fatalf("promote with nothing due allocates %v times", n)
	}
}

// TestReconcileNowBoundsADrain: one drain runs at most maxPassesPerDrain
// passes; the rest wait for the next drain.
func TestReconcileNowBoundsADrain(t *testing.T) {
	c := newLoopController(nil, 0)
	for i := 0; i < maxPassesPerDrain+44; i++ {
		c.queue.add(fmt.Sprintf("vm-%04d", i)) // no record: converged by absence
	}
	if n := c.ReconcileNow(); n != maxPassesPerDrain {
		t.Fatalf("first drain ran %d passes, want %d", n, maxPassesPerDrain)
	}
	if n := c.ReconcileNow(); n != 44 {
		t.Fatalf("second drain ran %d passes, want 44", n)
	}
	if n := c.metrics.Counter("reconcile/passes").Value(); n != maxPassesPerDrain+44 {
		t.Fatalf("reconcile/passes = %d", n)
	}
	if c.ReconcilePending() {
		t.Fatal("loop not quiescent after both drains")
	}
}

// TestReconcilePassBacksOffAndResets: a failing pass retries under
// doubling backoff; a successful one resets it and leaves the VM alone.
// Every pass is a "reconcile" span under the controller entity.
func TestReconcilePassBacksOffAndResets(t *testing.T) {
	store := obs.NewStore(64)
	c := newLoopController(store, 0)
	// A declared teardown on a server the controller does not know: the
	// finalizer fails on every pass.
	rec := &vmRecord{Vid: "vm-0001", Server: "gone", State: "terminated", Deleted: true}
	c.installVM(rec)
	c.queue.add(rec.Vid)

	clk := c.cfg.Clock
	for i, delay := range []time.Duration{backoffBase, 2 * backoffBase} {
		start := clk.Now()
		if n := c.ReconcileNow(); n != 1 {
			t.Fatalf("attempt %d ran %d passes, want 1", i+1, n)
		}
		if due, ok := c.NextReconcileDue(); !ok || due != start+delay {
			t.Fatalf("attempt %d: retry due %v %v, want %v", i+1, due, ok, start+delay)
		}
		clk.Advance(delay / 2)
		if n := c.ReconcileNow(); n != 0 {
			t.Fatalf("attempt %d: ran %d passes before the backoff elapsed", i+1, n)
		}
		clk.Advance(delay / 2)
	}
	c.mu.Lock()
	rec.Finalized = true // the teardown completed elsewhere
	c.mu.Unlock()
	if n := c.ReconcileNow(); n != 1 {
		t.Fatalf("converging pass ran %d passes, want 1", n)
	}
	if c.queue.failures[rec.Vid] != 0 {
		t.Fatal("a successful pass did not reset the backoff")
	}
	if c.ReconcilePending() {
		t.Fatal("loop not quiescent after convergence")
	}
	for name, want := range map[string]int64{
		"reconcile/passes": 3, "reconcile/pass-errors": 2, "reconcile/requeues": 2, "reconcile/requeues-after": 0,
	} {
		if n := c.metrics.Counter(name).Value(); n != want {
			t.Errorf("%s = %d, want %d", name, n, want)
		}
	}
	traces := store.Traces(obs.TraceFilter{Vid: rec.Vid})
	if len(traces) != 3 {
		t.Fatalf("%d traces for the VM, want one per pass", len(traces))
	}
	for _, tr := range traces {
		for _, sp := range tr.Spans {
			if sp.Name != "reconcile" || sp.Entity != "controller" {
				t.Fatalf("pass trace holds span %s under %s, want reconcile under controller", sp.Name, sp.Entity)
			}
		}
	}
}

// TestReconcileRequeueAfter: an active VM under ReattestEvery is rescheduled
// by its own pass, and re-attested when the schedule comes due.
func TestReconcileRequeueAfter(t *testing.T) {
	c := newLoopController(nil, time.Second)
	rec := &vmRecord{Vid: "vm-0001", Server: "srv-a", State: "active"}
	c.installVM(rec)
	c.queue.add(rec.Vid)
	c.ReconcileNow()
	clk := c.cfg.Clock
	if due, ok := c.NextReconcileDue(); !ok || due != clk.Now()+time.Second {
		t.Fatalf("next pass due %v %v, want +1s", due, ok)
	}
	clk.Advance(time.Second)
	if n := c.ReconcileNow(); n != 1 {
		t.Fatalf("scheduled drain ran %d passes, want 1", n)
	}
	// No attestation plane: the re-attestation degrades, never remediates.
	if cond := condOf(rec, condAttested); cond.Status != statusUnknown || cond.Reason != "InfraUnreachable" {
		t.Fatalf("Attested = %+v, want Unknown/InfraUnreachable", cond)
	}
	if n := c.metrics.Counter("reconcile/requeues-after").Value(); n != 2 {
		t.Fatalf("reconcile/requeues-after = %d, want 2", n)
	}
	if _, ok := c.NextReconcileDue(); !ok {
		t.Fatal("the schedule stopped for an active VM")
	}
}

func TestSetCondTransitionTime(t *testing.T) {
	c := newLoopController(nil, 0)
	clk := c.cfg.Clock
	rec := &vmRecord{Vid: "vm-0001"}
	clk.Advance(10)
	c.setCond(rec, condHealthy, statusTrue, "verified", "")
	// Same status later: reason updates, transition time preserved.
	clk.Advance(10)
	c.setCond(rec, condHealthy, statusTrue, "re-verified", "again")
	if got := condOf(rec, condHealthy); got.At != 10 || got.Reason != "re-verified" || got.Message != "again" {
		t.Fatalf("condition = %+v, want At=10 reason=re-verified", got)
	}
	// Status flip: transition time advances.
	clk.Advance(10)
	c.setCond(rec, condHealthy, statusFalse, "rootkit", "")
	if got := condOf(rec, condHealthy); got.At != 30 || got.Status != statusFalse {
		t.Fatalf("condition = %+v, want At=30 status=False", got)
	}
	c.setCond(rec, condPlaced, statusTrue, "Scheduled", "srv-a")
	if len(rec.Conditions) != 2 || rec.Conditions[1].Type != condPlaced || rec.Conditions[1].At != 30 {
		t.Fatalf("conditions = %+v, want Healthy then Placed", rec.Conditions)
	}
	// VMStatus hands out a copy.
	c.installVM(rec)
	st, err := c.VMStatus(rec.Vid)
	if err != nil {
		t.Fatal(err)
	}
	st.Conditions[0].Reason = "edited"
	if condOf(rec, condHealthy).Reason != "rootkit" {
		t.Fatal("VMStatus shares the record's condition slice")
	}
}

// TestRecoverFinishesTornWorkInVidOrder: a restarted controller enqueues
// the recovered VMs by vid, so the torn teardowns it finishes close their
// intents in one order on every recovery of the same ledger.
func TestRecoverFinishesTornWorkInVidOrder(t *testing.T) {
	vids := []string{"vm-0004", "vm-0001", "vm-0006", "vm-0003", "vm-0005", "vm-0002"}
	for round := 0; round < 4; round++ {
		led := memLedger(t)
		for i, vid := range vids {
			n := 1 + 6*i
			launchEntries(t, led, vid, n)
			// Migrated off its host and then torn down: the finalizer
			// needs no cloud server, so it completes during Recover.
			appendIntent(t, led, vid, "", IntentRecord{Phase: "end", Op: "migrate-out", ID: fmt.Sprintf("in-%06d", n+4), OK: true})
			appendIntent(t, led, vid, "", IntentRecord{Phase: "begin", Op: "terminate", ID: fmt.Sprintf("in-%06d", n+5)})
		}
		c := newRecoverController(t, led)
		if err := c.Recover(); err != nil {
			t.Fatal(err)
		}
		intents, err := led.Query(ledger.Filter{Kind: ledger.KindIntent})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range intents {
			var ir IntentRecord
			if err := e.Decode(&ir); err != nil {
				t.Fatal(err)
			}
			if ir.Op == "terminate" && ir.Phase == "end" {
				got = append(got, e.Vid)
			}
		}
		want := "vm-0001 vm-0002 vm-0003 vm-0004 vm-0005 vm-0006"
		if g := strings.Join(got, " "); g != want {
			t.Fatalf("round %d: teardowns finished in order %s, want %s", round, g, want)
		}
	}
}
