package controller

import (
	"crypto/rand"
	"fmt"
	"strings"
	"testing"

	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/image"
	"cloudmonatt/internal/latency"
	"cloudmonatt/internal/ledger"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/rpc"
	"cloudmonatt/internal/server"
	"cloudmonatt/internal/sim"
	"cloudmonatt/internal/vclock"
)

// newRecoverController builds a minimal controller over an in-memory
// network with nothing listening: every outbound RPC fails cleanly, which
// is exactly what replay must tolerate (cleanups are best effort, torn
// work stays pending for the loop's backoff).
func newRecoverController(t *testing.T, led *ledger.Ledger) *Controller {
	t.Helper()
	c := New(Config{
		Identity: cryptoutil.MustIdentity("cloud-controller"),
		Network:  rpc.NewMemNetwork(),
		Clock:    vclock.New(sim.NewKernel(1)),
		Latency:  latency.New(1),
		Rand:     rand.Reader,
		Ledger:   led,
	})
	c.RegisterServer(ServerEntry{
		Name: "srv-a", Addr: "srv-a",
		Capacity: server.Capacity{VCPUs: 16, MemoryMB: 32768, DiskGB: 500},
	})
	return c
}

func memLedger(t *testing.T) *ledger.Ledger {
	t.Helper()
	led, err := ledger.Open(ledger.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return led
}

func appendIntent(t *testing.T, led *ledger.Ledger, vid, prop string, ir IntentRecord) {
	t.Helper()
	if err := ledger.Record(led, ledger.Entry{Kind: ledger.KindIntent, Vid: vid, Prop: prop}, ir); err != nil {
		t.Fatal(err)
	}
}

// launchEntries appends a completed two-phase launch for vid on srv-a.
func launchEntries(t *testing.T, led *ledger.Ledger, vid string, n int) {
	t.Helper()
	appendIntent(t, led, vid, "", IntentRecord{
		Phase: "begin", Op: "launch", ID: fmt.Sprintf("in-%06d", n),
		Owner: "alice", Image: "cirros", Flavor: "small", Workload: "idle",
		Props: []string{string(properties.RuntimeIntegrity)},
	})
	appendIntent(t, led, vid, "", IntentRecord{
		Phase: "begin", Op: "place", ID: fmt.Sprintf("in-%06d", n+1), Server: "srv-a",
	})
	appendIntent(t, led, vid, "", IntentRecord{
		Phase: "end", Op: "place", ID: fmt.Sprintf("in-%06d", n+1), OK: true, Server: "srv-a",
	})
	appendIntent(t, led, vid, "", IntentRecord{
		Phase: "end", Op: "launch", ID: fmt.Sprintf("in-%06d", n), OK: true, Server: "srv-a",
	})
}

// TestRecoverReplayTable drives Recover over hand-built ledgers covering
// the fold's decision points: nothing to do, completed work folding to
// state (never re-executed), torn intents folding to pending work, and
// degradation evidence folding to nothing.
func TestRecoverReplayTable(t *testing.T) {
	flavor, err := image.FlavorByName("small")
	if err != nil {
		t.Fatal(err)
	}

	t.Run("empty ledger", func(t *testing.T) {
		c := newRecoverController(t, memLedger(t))
		if err := c.Recover(); err != nil {
			t.Fatal(err)
		}
		if len(c.vms) != 0 {
			t.Fatalf("recovered %d VMs from an empty ledger", len(c.vms))
		}
		if c.ReconcilePending() {
			t.Fatal("empty replay left pending reconcile work")
		}
	})

	t.Run("no ledger is an error", func(t *testing.T) {
		c := newRecoverController(t, nil)
		if err := c.Recover(); err == nil {
			t.Fatal("recovery without a ledger succeeded")
		}
	})

	t.Run("completed launch restores the VM and its reservation", func(t *testing.T) {
		led := memLedger(t)
		launchEntries(t, led, "vm-0001", 1)
		c := newRecoverController(t, led)
		if err := c.Recover(); err != nil {
			t.Fatal(err)
		}
		rec, ok := c.vms["vm-0001"]
		if !ok || rec.State != "active" || rec.Server != "srv-a" || rec.Owner != "alice" {
			t.Fatalf("recovered record = %+v", rec)
		}
		want := server.Capacity{VCPUs: flavor.VCPUs, MemoryMB: flavor.MemoryMB, DiskGB: flavor.DiskGB}
		if got := c.UsedCapacity("srv-a"); got != want {
			t.Fatalf("reservation = %+v, want %+v", got, want)
		}
		// The vid counter resumes past the recovered row.
		c.mu.Lock()
		next := c.nextVid
		c.mu.Unlock()
		if next != 1 {
			t.Fatalf("nextVid = %d, want 1", next)
		}
	})

	t.Run("torn final intent is cleaned up, not resurrected", func(t *testing.T) {
		led := memLedger(t)
		// The ledger ends mid-launch: begin + place begin, no completions —
		// the crash hit after the guest spawned.
		appendIntent(t, led, "vm-0001", "", IntentRecord{
			Phase: "begin", Op: "launch", ID: "in-000001",
			Owner: "alice", Image: "cirros", Flavor: "small",
		})
		appendIntent(t, led, "vm-0001", "", IntentRecord{
			Phase: "begin", Op: "place", ID: "in-000002", Server: "srv-a",
		})
		c := newRecoverController(t, led)
		if err := c.Recover(); err != nil {
			t.Fatal(err)
		}
		if len(c.vms) != 0 {
			t.Fatal("torn launch resurrected a VM row")
		}
		if got := c.UsedCapacity("srv-a"); got != (server.Capacity{}) {
			t.Fatalf("torn launch holds a reservation: %+v", got)
		}
		if n := c.metrics.Counter("controller/recover-torn-launches").Value(); n != 1 {
			t.Fatalf("recover-torn-launches = %d, want 1", n)
		}
		// The torn vid is burned: the counter resumes past it.
		c.mu.Lock()
		next := c.nextVid
		c.mu.Unlock()
		if next != 1 {
			t.Fatalf("nextVid = %d, want 1", next)
		}
	})

	t.Run("completed remediation is not re-executed", func(t *testing.T) {
		led := memLedger(t)
		launchEntries(t, led, "vm-0001", 1)
		appendIntent(t, led, "vm-0001", string(properties.RuntimeIntegrity), IntentRecord{
			Phase: "begin", Op: "remediate", ID: "in-000005",
			Response: string(Terminate), Reason: "rootkit",
		})
		appendIntent(t, led, "vm-0001", "", IntentRecord{
			Phase: "end", Op: "remediate", ID: "in-000005", OK: true,
			Response: string(Terminate), Reason: "rootkit", Terminated: true,
		})
		c := newRecoverController(t, led)
		if err := c.Recover(); err != nil {
			t.Fatal(err)
		}
		rec := c.vms["vm-0001"]
		if rec == nil || rec.State != "terminated" || !rec.Finalized {
			t.Fatalf("recovered record = %+v, want finalized termination", rec)
		}
		if rec.Pending != nil {
			t.Fatalf("completed remediation re-declared: %+v", rec.Pending)
		}
		if got := c.UsedCapacity("srv-a"); got != (server.Capacity{}) {
			t.Fatalf("terminated VM holds a reservation: %+v", got)
		}
		events := c.Events()
		if len(events) != 1 || !events[0].Terminated || events[0].Prop != properties.RuntimeIntegrity {
			t.Fatalf("replayed events = %+v, want the one recorded termination", events)
		}
		if c.ReconcilePending() {
			t.Fatal("finalized VM enqueued for reconciliation")
		}
	})

	t.Run("torn remediation becomes pending work once", func(t *testing.T) {
		led := memLedger(t)
		launchEntries(t, led, "vm-0001", 1)
		appendIntent(t, led, "vm-0001", string(properties.RuntimeIntegrity), IntentRecord{
			Phase: "begin", Op: "remediate", ID: "in-000005",
			Response: string(Terminate), Reason: "rootkit",
		})
		c := newRecoverController(t, led)
		if err := c.Recover(); err != nil {
			t.Fatal(err)
		}
		// The re-execution runs against a dead fleet (nothing listening), so
		// the declaration must survive, intent id intact, for the backoff
		// retry — never a second begin, never a duplicate.
		rec := c.vms["vm-0001"]
		if rec == nil || rec.Pending == nil {
			t.Fatalf("torn remediation not re-declared: %+v", rec)
		}
		if rec.Pending.IntentID != "in-000005" {
			t.Fatalf("pending intent id %q, want the torn in-000005", rec.Pending.IntentID)
		}
		if rec.Pending.Response != Terminate || rec.Pending.Prop != properties.RuntimeIntegrity {
			t.Fatalf("pending = %+v", rec.Pending)
		}
		if n := c.metrics.Counter("controller/recover-torn-remediations").Value(); n != 1 {
			t.Fatalf("recover-torn-remediations = %d, want 1", n)
		}
		if !c.ReconcilePending() {
			t.Fatal("torn remediation not queued for retry")
		}
	})

	t.Run("torn teardown re-enters the finalizer", func(t *testing.T) {
		led := memLedger(t)
		launchEntries(t, led, "vm-0001", 1)
		appendIntent(t, led, "vm-0001", "", IntentRecord{
			Phase: "begin", Op: "terminate", ID: "in-000005",
		})
		c := newRecoverController(t, led)
		if err := c.Recover(); err != nil {
			t.Fatal(err)
		}
		rec := c.vms["vm-0001"]
		if rec == nil || !rec.Deleted || rec.State != "terminated" {
			t.Fatalf("torn teardown record = %+v", rec)
		}
		// The finalizer ran against the dead fleet and must keep retrying.
		if rec.Finalized {
			if got := c.UsedCapacity("srv-a"); got != (server.Capacity{}) {
				t.Fatalf("finalized with a live reservation: %+v", got)
			}
		} else if !c.ReconcilePending() {
			t.Fatal("unfinalized teardown not queued for retry")
		}
	})

	t.Run("degradation evidence never becomes remediation", func(t *testing.T) {
		led := memLedger(t)
		launchEntries(t, led, "vm-0001", 1)
		if err := ledger.Record(led, ledger.Entry{
			Kind: ledger.KindDegraded, Vid: "vm-0001", Prop: string(properties.RuntimeIntegrity),
		}, StaleServeRecord{AgeNS: 0, Cause: "attestation server unreachable"}); err != nil {
			t.Fatal(err)
		}
		c := newRecoverController(t, led)
		if err := c.Recover(); err != nil {
			t.Fatal(err)
		}
		rec := c.vms["vm-0001"]
		if rec == nil || rec.State != "active" {
			t.Fatalf("degraded VM record = %+v, want active", rec)
		}
		if rec.Pending != nil {
			t.Fatalf("infrastructure failure replayed into remediation: %+v", rec.Pending)
		}
		if events := c.Events(); len(events) != 0 {
			t.Fatalf("degradation produced events: %+v", events)
		}
	})

	t.Run("suspend then resume folds to active", func(t *testing.T) {
		led := memLedger(t)
		launchEntries(t, led, "vm-0001", 1)
		appendIntent(t, led, "vm-0001", "", IntentRecord{
			Phase: "end", Op: "state", ID: "in-000005", OK: true, State: "suspended",
		})
		if err := ledger.Record(led, ledger.Entry{Kind: ledger.KindRemediation, Vid: "vm-0001"}, RemediationRecord{Response: "resume"}); err != nil {
			t.Fatal(err)
		}
		c := newRecoverController(t, led)
		if err := c.Recover(); err != nil {
			t.Fatal(err)
		}
		if rec := c.vms["vm-0001"]; rec == nil || rec.State != "active" {
			t.Fatalf("record = %+v, want active after suspend+resume", rec)
		}
	})

	t.Run("unreadable intent fails recovery", func(t *testing.T) {
		led := memLedger(t)
		launchEntries(t, led, "vm-0001", 1)
		// Entry 5: an intent cut short by a byte. Folding past it could drop
		// the begin of a torn operation.
		enc := IntentRecord{Phase: "begin", Op: "terminate", ID: "in-000005"}.AppendWire(nil)
		if _, err := led.Append(ledger.Entry{Kind: ledger.KindIntent, Vid: "vm-0001", Payload: enc[:len(enc)-1]}); err != nil {
			t.Fatal(err)
		}
		c := newRecoverController(t, led)
		if err := c.Recover(); err == nil || !strings.Contains(err.Error(), "entry 5") {
			t.Fatalf("Recover over an unreadable intent = %v, want an error naming entry 5", err)
		}
	})
}

// TestEventsRingBounded: the controller's remediation event feed is a
// drop-oldest ring of eventsCap entries; overflow is counted, never
// unbounded growth.
func TestEventsRingBounded(t *testing.T) {
	c := New(Config{
		Identity: cryptoutil.MustIdentity("cloud-controller"),
		Network:  rpc.NewMemNetwork(),
		Clock:    vclock.New(sim.NewKernel(1)),
		Latency:  latency.New(1),
		Rand:     rand.Reader,
	})
	for i := 0; i < eventsCap+2; i++ {
		c.appendEvent(ResponseEvent{Vid: fmt.Sprintf("vm-%04d", i+1), Response: Terminate})
	}
	events := c.Events()
	if len(events) != eventsCap {
		t.Fatalf("ring holds %d events, want %d", len(events), eventsCap)
	}
	if first, last := events[0].Vid, events[eventsCap-1].Vid; first != "vm-0003" || last != fmt.Sprintf("vm-%04d", eventsCap+2) {
		t.Fatalf("ring did not drop oldest: holds %s..%s", first, last)
	}
	if n := c.metrics.Counter("controller/events-dropped").Value(); n != 2 {
		t.Fatalf("events-dropped = %d, want 2", n)
	}
}
