package controller_test

import (
	"net"
	"sync"
	"testing"
	"time"

	"cloudmonatt/internal/cloudsim"
	"cloudmonatt/internal/controller"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/rpc"
)

// TestSuspendRecordFollowsHostAck: the controller's record of a VM's
// lifecycle state flips only after the host acknowledged the transition. A
// suspension that cannot reach the host leaves the record "active" and the
// remediation pending, so the retry really pauses the guest before the
// evidence trail says so; a resume that cannot reach the host leaves the
// record "suspended" over the still-paused guest.
func TestSuspendRecordFollowsHostAck(t *testing.T) {
	fn := rpc.NewFaultNetwork(rpc.NewMemNetwork(), rpc.FaultConfig{Seed: 7})
	policy := controller.DefaultPolicy()
	policy[properties.RuntimeIntegrity] = controller.Suspend
	opts := chaosOptions(86, 2, fn)
	opts.Policy = policy
	tb, cu := newTB(t, opts)
	res, err := cu.Launch(req())
	if err != nil || !res.OK {
		t.Fatalf("launch: %v %s", err, res.Reason)
	}
	hostState := func() string {
		t.Helper()
		info, err := tb.Servers[res.Server].Info(res.Vid)
		if err != nil {
			t.Fatal(err)
		}
		return info.State
	}
	ctrlState := func() string {
		t.Helper()
		st, err := tb.Ctrl.VMState(res.Vid)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	// Suspension against an unreachable host: nothing happened, so nothing
	// may be recorded as having happened.
	fn.Partition("server:" + res.Server)
	if _, err := tb.Ctrl.Respond(res.Vid, properties.RuntimeIntegrity, "rootkit"); err == nil {
		t.Fatal("suspension through a partition reported success")
	}
	if got := ctrlState(); got != "active" {
		t.Fatalf("record %q after a suspend the host never saw, want active", got)
	}
	if evs := tb.Ctrl.Events(); len(evs) != 0 {
		t.Fatalf("remediation recorded through a partition: %+v", evs)
	}
	if !tb.Ctrl.ReconcilePending() {
		t.Fatal("failed suspension left no pending reconcile work")
	}

	// Heal: the loop's retry must pause the guest, and only then record it.
	fn.HealAll()
	tb.RunFor(30 * time.Second)
	if got := hostState(); got != "suspended" {
		t.Fatalf("guest is %q on its host after the retried suspension, want suspended", got)
	}
	if got := ctrlState(); got != "suspended" {
		t.Fatalf("record %q after the retried suspension", got)
	}
	evs := tb.Ctrl.Events()
	if len(evs) != 1 || evs[0].Response != controller.Suspend {
		t.Fatalf("events after heal = %+v, want exactly one suspension", evs)
	}

	// The mirror case: a resume the host never saw leaves the record
	// suspended, whether asked for directly or through the recheck.
	fn.Partition("server:" + res.Server)
	if err := tb.Ctrl.ResumeVM(res.Vid); err == nil {
		t.Fatal("resume through a partition reported success")
	}
	if _, active, err := tb.Ctrl.RecheckAndResume(res.Vid); err == nil || active {
		t.Fatalf("recheck through a partition: active=%v err=%v", active, err)
	}
	if got := ctrlState(); got != "suspended" {
		t.Fatalf("record %q after a resume the host never saw, want suspended", got)
	}
	fn.HealAll()
	if got := hostState(); got != "suspended" {
		t.Fatalf("guest is %q after the failed resume, want suspended", got)
	}
	if err := tb.Ctrl.ResumeVM(res.Vid); err != nil {
		t.Fatalf("resume after heal: %v", err)
	}
	if got, want := hostState(), "running"; got != want || ctrlState() != "active" {
		t.Fatalf("after resume: host %q, record %q", got, ctrlState())
	}
}

// TestResumeSurvivesALostReply: the host resumes the VM and the reply is
// lost with the connection. The retried resume must be answered from the
// host's record of the first, not run again against a VM that is no
// longer suspended, or the controller would keep the VM "suspended" while
// its host runs it.
func TestResumeSurvivesALostReply(t *testing.T) {
	n := rpc.NewMemNetwork()
	var mu sync.Mutex
	armed := "" // the address whose next reply is lost
	n.Intercept = func(addr string, client, srv net.Conn) (net.Conn, net.Conn) {
		return client, &loseReply{Conn: srv, lose: func() bool {
			mu.Lock()
			defer mu.Unlock()
			if armed != addr {
				return false
			}
			armed = ""
			return true
		}}
	}
	tb, cu := newTB(t, cloudsim.Options{Seed: 87, Network: n})
	res, err := cu.Launch(req())
	if err != nil || !res.OK {
		t.Fatalf("launch: %v %s", err, res.Reason)
	}
	if err := tb.Ctrl.SuspendVM(res.Vid); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	armed = "server:" + res.Server
	mu.Unlock()
	if err := tb.Ctrl.ResumeVM(res.Vid); err != nil {
		t.Fatalf("resume across a lost reply: %v", err)
	}
	mu.Lock()
	lost := armed == ""
	mu.Unlock()
	if !lost {
		t.Fatal("no reply was lost: the test did not reset the connection")
	}
	info, err := tb.Servers[res.Server].Info(res.Vid)
	if err != nil {
		t.Fatal(err)
	}
	st, err := tb.Ctrl.VMState(res.Vid)
	if err != nil || st != "active" || info.State != "running" {
		t.Fatalf("after resume: record %q (%v), host %q", st, err, info.State)
	}
}

// loseReply closes the server's end of a connection in place of a write
// when lose says so: the request was read and run, and its reply is lost.
type loseReply struct {
	net.Conn
	lose func() bool
}

func (c *loseReply) Write(p []byte) (int, error) {
	if c.lose() {
		c.Conn.Close()
		return 0, net.ErrClosed
	}
	return c.Conn.Write(p)
}
