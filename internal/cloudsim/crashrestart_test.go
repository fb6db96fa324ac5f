package cloudsim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"cloudmonatt/internal/controller"
	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/ledger"
	"cloudmonatt/internal/pca"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/rpc"
	"cloudmonatt/internal/server"
	"cloudmonatt/internal/wire"
)

// failpoints is a mutable crash-injection set handed to Options.FailPoint.
// Points stay armed until cleared, so a retried operation crashes again —
// exactly like a controller that keeps dying at the same instruction.
type failpoints struct {
	mu sync.Mutex
	on map[string]bool
}

func newFailpoints(points ...string) *failpoints {
	f := &failpoints{on: make(map[string]bool)}
	for _, p := range points {
		f.on[p] = true
	}
	return f
}

func (f *failpoints) hit(p string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.on[p]
}

// noOrphans asserts that no cloud server hosts the VM and no capacity
// reservation remains anywhere — the "no orphaned VMs" acceptance bar.
func noOrphans(t *testing.T, tb *Testbed, vid string) {
	t.Helper()
	for name, srv := range tb.Servers {
		if _, err := srv.Guest(vid); err == nil {
			t.Fatalf("orphaned guest %s still running on %s", vid, name)
		}
	}
	for name := range tb.Servers {
		if used := tb.Ctrl.UsedCapacity(name); used != (server.Capacity{}) {
			t.Fatalf("capacity leak on %s: %+v", name, used)
		}
	}
}

// TestChaosControllerRestartMidLaunch kills the controller right after the
// guest spawned on its candidate server (the place intent is begun, its
// completion never recorded) and restarts it. Recovery must clean the
// half-placed guest off the host, leak no capacity, resurrect no VM row,
// and leave the fleet fully usable.
func TestChaosControllerRestartMidLaunch(t *testing.T) {
	fp := newFailpoints("launch-spawned")
	tb := newTB(t, Options{Seed: 141, Servers: 2, FailPoint: fp.hit})
	cu, err := tb.NewCustomer("alice")
	if err != nil {
		t.Fatal(err)
	}

	_, err = cu.Launch(basicLaunch())
	if err == nil {
		t.Fatal("launch survived an injected crash")
	}
	if !strings.Contains(err.Error(), "crash injected") {
		t.Fatalf("launch error %v does not carry the crash sentinel", err)
	}

	// The dead controller left a live guest and a torn place intent behind.
	if err := tb.RestartController(); err != nil {
		t.Fatal(err)
	}
	noOrphans(t, tb, "vm-0001")
	if vms := tb.Ctrl.ListVMs("alice"); len(vms) != 0 {
		t.Fatalf("half-launched VM resurrected by recovery: %+v", vms)
	}
	if n := tb.Ctrl.Metrics().Counter("controller/recover-torn-launches").Value(); n != 1 {
		t.Fatalf("recover-torn-launches = %d, want 1", n)
	}

	// The fleet still works end to end: a clean relaunch under the new
	// controller (failpoints gone, same identity — same customer channel).
	res := launch(t, cu, basicLaunch())
	if !res.Verdict.Healthy {
		t.Fatalf("post-recovery launch attested unhealthy: %v", res.Verdict)
	}
	if res.Vid == "vm-0001" {
		t.Fatal("vid counter not recovered: reissued the torn launch's vid")
	}
}

// TestChaosControllerRestartMidRemediation kills the controller after a
// termination remediation was declared (intent begun) but before anything
// executed, restarts it, and requires the replay to finish the response
// exactly once: one event, the VM gone, no double execution afterwards.
func TestChaosControllerRestartMidRemediation(t *testing.T) {
	fp := newFailpoints("mid-remediation")
	tb := newTB(t, Options{Seed: 142, FailPoint: fp.hit})
	cu, err := tb.NewCustomer("alice")
	if err != nil {
		t.Fatal(err)
	}
	res := launch(t, cu, basicLaunch())
	tb.RunFor(2 * time.Second)

	g, err := tb.GuestOf(res.Vid)
	if err != nil {
		t.Fatal(err)
	}
	g.InfectRootkit("stealth-miner")
	v, err := cu.Attest(res.Vid, properties.RuntimeIntegrity)
	if err != nil {
		t.Fatal(err)
	}
	if v.Healthy {
		t.Fatal("rootkit not detected")
	}
	// The crash hit between declaring the response and executing it.
	if got := len(tb.Ctrl.Events()); got != 0 {
		t.Fatalf("remediation completed despite the crash: %d events", got)
	}
	if st, _ := tb.Ctrl.VMState(res.Vid); st != "active" {
		t.Fatalf("state %q before recovery, want active", st)
	}

	if err := tb.RestartController(); err != nil {
		t.Fatal(err)
	}
	if n := tb.Ctrl.Metrics().Counter("controller/recover-torn-remediations").Value(); n != 1 {
		t.Fatalf("recover-torn-remediations = %d, want 1", n)
	}
	events := tb.Ctrl.Events()
	if len(events) != 1 || events[0].Response != controller.Terminate || !events[0].Terminated {
		t.Fatalf("recovery events = %+v, want exactly one completed termination", events)
	}
	if st, _ := tb.Ctrl.VMState(res.Vid); st != "terminated" {
		t.Fatalf("state %q after recovery, want terminated", st)
	}
	noOrphans(t, tb, res.Vid)

	// Idempotence: more wall-clock and another restart must not re-execute
	// the completed intent (no double remediation).
	tb.RunFor(10 * time.Second)
	if err := tb.RestartController(); err != nil {
		t.Fatal(err)
	}
	tb.RunFor(10 * time.Second)
	if events := tb.Ctrl.Events(); len(events) != 1 {
		t.Fatalf("remediation re-executed after replay: %+v", events)
	}
	noOrphans(t, tb, res.Vid)
}

// TestChaosControllerRestartMidMigration kills the controller after the
// migrate-out half of a migration (the VM is off its source, its relaunch
// spec only in the ledger) and requires recovery to finish the move: the
// VM lands on the destination, exactly one migration event exists, and
// the source holds neither guest nor reservation.
func TestChaosControllerRestartMidMigration(t *testing.T) {
	fp := newFailpoints("mid-migrate")
	tb := newTB(t, Options{Seed: 143, Servers: 2, FailPoint: fp.hit})
	cu, err := tb.NewCustomer("alice")
	if err != nil {
		t.Fatal(err)
	}
	req := basicLaunch()
	req.Workload = "spinner"
	req.Pin = 1
	res := launch(t, cu, req)
	src := res.Server

	if _, err := tb.LaunchCoResident(src, "attack:cpu-starver", 1); err != nil {
		t.Fatal(err)
	}
	tb.RunFor(time.Second)
	v, err := cu.Attest(res.Vid, properties.CPUAvailability)
	if err != nil {
		t.Fatal(err)
	}
	if v.Healthy {
		t.Fatal("starved VM judged healthy")
	}
	// Crashed half-migrated: off the source, not yet on the destination.
	if len(tb.Ctrl.Events()) != 0 {
		t.Fatal("migration completed despite the crash")
	}

	if err := tb.RestartController(); err != nil {
		t.Fatal(err)
	}
	events := tb.Ctrl.Events()
	if len(events) != 1 || events[0].Response != controller.Migrate || events[0].Terminated {
		t.Fatalf("recovery events = %+v, want exactly one completed migration", events)
	}
	dest, err := tb.Ctrl.VMServer(res.Vid)
	if err != nil {
		t.Fatal(err)
	}
	if dest == src {
		t.Fatalf("VM still on the attacked server %s after recovery", src)
	}
	if _, err := tb.Servers[src].Guest(res.Vid); err == nil {
		t.Fatalf("guest still present on migration source %s", src)
	}
	if used := tb.Ctrl.UsedCapacity(src); used != (server.Capacity{}) {
		t.Fatalf("source capacity not released: %+v", used)
	}
	if used := tb.Ctrl.UsedCapacity(dest); used == (server.Capacity{}) {
		t.Fatal("destination holds no reservation for the migrated VM")
	}

	// Off the starved pCPU, availability recovers end to end.
	tb.RunFor(time.Second)
	v, err = cu.Attest(res.Vid, properties.CPUAvailability)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Healthy {
		t.Fatalf("migrated VM still starved: %v", v)
	}
	if events := tb.Ctrl.Events(); len(events) != 1 {
		t.Fatalf("second remediation executed: %+v", events)
	}
}

// TestChaosControllerRestartMidTeardown kills the controller between the
// customer's terminate request and the finalizer's completion, restarts
// it, and requires the finalizer to finish the half-done teardown.
func TestChaosControllerRestartMidTeardown(t *testing.T) {
	fp := newFailpoints("mid-teardown")
	tb := newTB(t, Options{Seed: 144, FailPoint: fp.hit})
	cu, err := tb.NewCustomer("alice")
	if err != nil {
		t.Fatal(err)
	}
	res := launch(t, cu, basicLaunch())

	if err := cu.Terminate(res.Vid); err == nil {
		t.Fatal("terminate survived an injected crash")
	}

	if err := tb.RestartController(); err != nil {
		t.Fatal(err)
	}
	st, err := cu.Status(res.Vid)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "terminated" || !st.Deleted || !st.Finalized {
		t.Fatalf("teardown not finished by recovery: %+v", st)
	}
	noOrphans(t, tb, res.Vid)
	// The finalizer is converged, not re-runnable: a second terminate is a
	// clean refusal, and no remediation event ever existed.
	if err := cu.Terminate(res.Vid); err == nil {
		t.Fatal("double terminate accepted")
	}
	if events := tb.Ctrl.Events(); len(events) != 0 {
		t.Fatalf("teardown produced remediation events: %+v", events)
	}
}

// TestChaosMigrationRetriesAfterPartition: a migration whose relaunch half
// fails from a partitioned destination stays a pending declaration; the
// level-triggered loop retries with backoff and completes the move once
// the partition heals — no customer action, no restart.
func TestChaosMigrationRetriesAfterPartition(t *testing.T) {
	fn := rpc.NewFaultNetwork(rpc.NewMemNetwork(), rpc.FaultConfig{Seed: 11})
	tb := newTB(t, Options{
		Seed:    145,
		Servers: 2,
		Network: fn,
		RPC:     rpc.Policy{CallTimeout: 250 * time.Millisecond, MaxAttempts: 2, BaseDelay: 5 * time.Millisecond, MaxDelay: 10 * time.Millisecond, BreakerThreshold: -1},
	})
	cu, err := tb.NewCustomer("alice")
	if err != nil {
		t.Fatal(err)
	}
	req := basicLaunch()
	req.Workload = "spinner"
	req.Pin = 1
	res := launch(t, cu, req)
	src := res.Server
	dest := serverName(0)
	if dest == src {
		dest = serverName(1)
	}

	if _, err := tb.LaunchCoResident(src, "attack:cpu-starver", 1); err != nil {
		t.Fatal(err)
	}
	tb.RunFor(time.Second)
	fn.Partition("server:" + dest)

	// Ask the controller directly: its inline remediation attempt retries
	// against the partitioned destination for longer than the customer's
	// own rpc budget (the same caveat as the stale-report trace test).
	rep, err := tb.Ctrl.Attest(wire.AttestRequest{
		Vid: res.Vid, Prop: properties.CPUAvailability, N1: cryptoutil.MustNonce(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict.Healthy {
		t.Fatal("starved VM judged healthy")
	}
	// The relaunch half could not reach the destination: the declaration
	// stays pending, nothing completed.
	if len(tb.Ctrl.Events()) != 0 {
		t.Fatal("migration completed through a partition")
	}
	if !tb.Ctrl.ReconcilePending() {
		t.Fatal("failed migration left no pending reconcile work")
	}

	fn.Heal("server:" + dest)
	tb.RunFor(30 * time.Second)

	events := tb.Ctrl.Events()
	if len(events) != 1 || events[0].Response != controller.Migrate || events[0].Terminated {
		t.Fatalf("events after heal = %+v, want exactly one completed migration", events)
	}
	if got, _ := tb.Ctrl.VMServer(res.Vid); got != dest {
		t.Fatalf("VM on %s after retry, want %s", got, dest)
	}
	if st, _ := tb.Ctrl.VMState(res.Vid); st != "active" {
		t.Fatalf("state %q after retried migration", st)
	}
}

// TestReattestLoopDetectsCompromise: with ReattestEvery set, the reconcile
// loop re-attests every active VM on its requeue-after schedule — no
// customer request involved — and converges the policy response when a
// round finds a compromise.
func TestReattestLoopDetectsCompromise(t *testing.T) {
	tb := newTB(t, Options{Seed: 147, ReattestEvery: 5 * time.Second})
	cu, err := tb.NewCustomer("alice")
	if err != nil {
		t.Fatal(err)
	}
	res := launch(t, cu, basicLaunch())

	// Two clean rounds: the loop requeues, never remediates.
	tb.RunFor(12 * time.Second)
	if events := tb.Ctrl.Events(); len(events) != 0 {
		t.Fatalf("healthy VM remediated by the reattest loop: %+v", events)
	}
	if n := tb.Ctrl.Metrics().Counter("reconcile/passes").Value(); n == 0 {
		t.Fatal("reattest schedule drove no reconcile passes")
	}
	if n := tb.Ctrl.Metrics().Counter("reconcile/requeues-after").Value(); n == 0 {
		t.Fatal("periodic reattestation recorded no scheduled requeues")
	}

	// Infect; the next scheduled round must catch it without any customer
	// attest call and execute the runtime-integrity policy (terminate).
	g, err := tb.GuestOf(res.Vid)
	if err != nil {
		t.Fatal(err)
	}
	g.InfectRootkit("stealth-miner")
	tb.RunFor(6 * time.Second)
	events := tb.Ctrl.Events()
	if len(events) != 1 || events[0].Response != controller.Terminate {
		t.Fatalf("loop response = %+v, want one termination", events)
	}
	if st, _ := tb.Ctrl.VMState(res.Vid); st != "terminated" {
		t.Fatalf("state %q after loop-driven response", st)
	}
	// Terminated: the schedule stops, the fleet is clean.
	noOrphans(t, tb, res.Vid)
	tb.RunFor(10 * time.Second)
	if events := tb.Ctrl.Events(); len(events) != 1 {
		t.Fatalf("terminated VM re-remediated: %+v", events)
	}
}

// TestOneSeedOneReconcileOrder: VMs whose re-attestations fall due
// together are reconciled in one order, so one seed gives one ledger
// sequence run after run.
func TestOneSeedOneReconcileOrder(t *testing.T) {
	run := func() string {
		tb := newTB(t, Options{Seed: 7, Servers: 3, ReattestEvery: 2 * time.Second})
		cu, err := tb.NewCustomer("alice")
		if err != nil {
			t.Fatal(err)
		}
		req := basicLaunch()
		req.Workload = "idle"
		for i := 0; i < 6; i++ {
			launch(t, cu, req)
		}
		tb.RunFor(20 * time.Second)
		entries, err := tb.Ledger.Query(ledger.Filter{})
		if err != nil {
			t.Fatal(err)
		}
		var seq strings.Builder
		for _, e := range entries {
			fmt.Fprintf(&seq, "%d %s %s %s\n", e.At, e.Kind, e.Vid, e.Prop)
		}
		return seq.String()
	}
	first := run()
	for i := 1; i < 4; i++ {
		if again := run(); again != first {
			t.Fatalf("run %d of seed 7 wrote a different ledger sequence:\n%s", i+1, firstDiff(first, again))
		}
	}
}

// firstDiff renders the first line at which two ledger sequences part.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("entry %d: %q vs %q", i, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths %d vs %d", len(al), len(bl))
}

// TestChaosInfraFailureNeverRemediatesAcrossRestart: an attestation that
// degrades because the infrastructure is unreachable must not become a
// remediation — not when it happens, and not when a restarted controller
// replays the ledger that recorded it (the degradation entry folds to
// evidence, never to work).
func TestChaosInfraFailureNeverRemediatesAcrossRestart(t *testing.T) {
	fn := rpc.NewFaultNetwork(rpc.NewMemNetwork(), rpc.FaultConfig{Seed: 13})
	tb := newTB(t, Options{
		Seed:    146,
		Network: fn,
		RPC:     rpc.Policy{CallTimeout: 250 * time.Millisecond, MaxAttempts: 2, BaseDelay: 5 * time.Millisecond, MaxDelay: 10 * time.Millisecond, BreakerThreshold: -1},
	})
	cu, err := tb.NewCustomer("alice")
	if err != nil {
		t.Fatal(err)
	}
	res := launch(t, cu, basicLaunch())
	tb.RunFor(time.Second)

	// Populate last-known-good, then blackhole the appraiser and attest:
	// the controller degrades to a stale serve (recorded in the ledger).
	if v, err := cu.Attest(res.Vid, properties.RuntimeIntegrity); err != nil || !v.Healthy {
		t.Fatalf("baseline attest: %v %v", v, err)
	}
	tb.RunFor(3 * time.Second)
	fn.Partition("attestation-server")
	// Direct call: the controller's retry budget against the partitioned
	// appraiser outlives the customer-facing rpc timeout.
	rep, err := tb.Ctrl.Attest(wire.AttestRequest{
		Vid: res.Vid, Prop: properties.RuntimeIntegrity, N1: cryptoutil.MustNonce(),
	})
	if err != nil {
		t.Fatalf("attest during partition: %v", err)
	}
	if !rep.Stale {
		t.Fatal("partitioned attest not served as a stale degradation")
	}

	fn.Heal("attestation-server")
	if err := tb.RestartController(); err != nil {
		t.Fatal(err)
	}
	tb.RunFor(10 * time.Second)

	// The VM survived: still active, still placed, and the degradation
	// never turned into a response event.
	if events := tb.Ctrl.Events(); len(events) != 0 {
		t.Fatalf("infrastructure failure remediated: %+v", events)
	}
	if st, _ := tb.Ctrl.VMState(res.Vid); st != "active" {
		t.Fatalf("state %q after recovery, want active", st)
	}
	if v, err := cu.Attest(res.Vid, properties.RuntimeIntegrity); err != nil || !v.Healthy {
		t.Fatalf("post-recovery attest: %v %v", v, err)
	}
}

// TestChaosInfraPCARestartSerialsMonotonic crashes and restarts the
// privacy CA mid-fleet. The pCA's serial counter used to live only in
// process memory, so a restarted pCA would re-issue anon-1, anon-2, … and
// silently break certificate-subject uniqueness. Recovery must replay the
// high-water mark from the KindCertIssue ledger entries and keep the
// sequence strictly increasing across the restart. A server asks the pCA
// only when its session rotates, so each side of the restart drives one
// whole window of attestations to be sure to cross a rotation.
func TestChaosInfraPCARestartSerialsMonotonic(t *testing.T) {
	tb := newTB(t, Options{Seed: 17})
	cu, err := tb.NewCustomer("dana")
	if err != nil {
		t.Fatal(err)
	}
	res := launch(t, cu, basicLaunch())
	for i := 0; i < sessionUses; i++ {
		if v, err := cu.Attest(res.Vid, properties.RuntimeIntegrity); err != nil || !v.Healthy {
			t.Fatalf("pre-restart attest %d: %v %v", i, v, err)
		}
	}
	before := tb.PCA.SerialHighWater()
	if before < 2 {
		t.Fatalf("high-water %d before the restart, want a rotation crossed (>= 2)", before)
	}

	if err := tb.RestartPCA(); err != nil {
		t.Fatal(err)
	}
	if got := tb.PCA.SerialHighWater(); got != before {
		t.Fatalf("restarted pCA recovered high-water %d, want %d", got, before)
	}
	for i := 0; i < sessionUses; i++ {
		if v, err := cu.Attest(res.Vid, properties.RuntimeIntegrity); err != nil || !v.Healthy {
			t.Fatalf("post-restart attest %d: %v %v", i, v, err)
		}
	}
	if got := tb.PCA.SerialHighWater(); got <= before {
		t.Fatalf("post-restart issuance did not advance serials: %d <= %d", got, before)
	}

	// The ledgered issuance chain must show one strictly increasing serial
	// sequence with no subject reused across the restart.
	entries, err := tb.Ledger.Query(ledger.Filter{Kind: ledger.KindCertIssue})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 3 {
		t.Fatalf("expected >=3 issuance entries (two before the restart, one after), got %d", len(entries))
	}
	last := uint64(0)
	subjects := make(map[string]bool)
	for _, e := range entries {
		var rec pca.IssuanceRecord
		if err := e.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		if rec.Serial <= last {
			t.Fatalf("serial %d issued after %d — sequence not strictly increasing", rec.Serial, last)
		}
		last = rec.Serial
		if subjects[rec.Subject] {
			t.Fatalf("certificate subject %q reused across restart", rec.Subject)
		}
		subjects[rec.Subject] = true
	}
}

// TestRecoveryRefusesAChainThatDoesNotVerify flips one byte of the VM id
// in the second VM's launch-begin intent, on disk, after the testbed wrote
// it, and restarts the controller. Recovery must return the hash mismatch
// and rebuild no VM row, nor hold any capacity: a fold over entries the
// chain no longer vouches for would rebuild the controller from whatever
// the disk now says. With the byte restored, the same chain recovers both
// VMs.
func TestRecoveryRefusesAChainThatDoesNotVerify(t *testing.T) {
	dir := t.TempDir()
	tb := newTB(t, Options{Seed: 143, Servers: 2, LedgerDir: dir})
	cu, err := tb.NewCustomer("alice")
	if err != nil {
		t.Fatal(err)
	}
	launch(t, cu, basicLaunch())
	vid := launch(t, cu, basicLaunch()).Vid

	// The first intent entry naming vid is its launch begin: the frame holds
	// the kind, then the VM id, each after a u16 length.
	seg := filepath.Join(dir, "seg-0000000000000001.log")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	marker := binary.BigEndian.AppendUint16(nil, uint16(len(ledger.KindIntent)))
	marker = append(marker, ledger.KindIntent...)
	marker = binary.BigEndian.AppendUint16(marker, uint16(len(vid)))
	marker = append(marker, vid...)
	i := bytes.Index(data, marker)
	if i < 0 {
		t.Fatalf("no intent entry for %s in %s", vid, seg)
	}
	off := int64(i + len(marker) - 1) // the VM id's last byte
	write := func(b byte) {
		f, err := os.OpenFile(seg, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteAt([]byte{b}, off); err != nil {
			t.Fatal(err)
		}
	}

	write(data[off] ^ 0x08)
	err = tb.RestartController()
	if err == nil || !strings.Contains(err.Error(), "hash mismatch") {
		t.Fatalf("recovery over a mutated intent entry: %v, want the hash mismatch", err)
	}
	if vms := tb.Ctrl.ListVMs("alice"); len(vms) != 0 {
		t.Fatalf("recovery rebuilt %d rows from a chain that does not verify: %+v", len(vms), vms)
	}
	for i := range len(tb.Servers) {
		if used := tb.Ctrl.UsedCapacity(serverName(i)); used != (server.Capacity{}) {
			t.Fatalf("a refused recovery holds %+v on %s", used, serverName(i))
		}
	}

	write(data[off])
	if err := tb.RestartController(); err != nil {
		t.Fatal(err)
	}
	if vms := tb.Ctrl.ListVMs("alice"); len(vms) != 2 {
		t.Fatalf("recovery over the restored chain rebuilt %+v, want both VMs", vms)
	}
}
