package controller

import (
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"cloudmonatt/internal/attestsrv"
	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/image"
	"cloudmonatt/internal/latency"
	"cloudmonatt/internal/ledger"
	"cloudmonatt/internal/obs"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/rpc"
	"cloudmonatt/internal/secchan"
	"cloudmonatt/internal/server"
	"cloudmonatt/internal/shard"
	"cloudmonatt/internal/sim"
	"cloudmonatt/internal/vclock"
	"cloudmonatt/internal/wire"
)

// hop2Rig is a controller whose attestation plane is two scripted shards:
// the ring names only shard-a, shard-b is registered (its key is a trust
// anchor) but owns nothing, and one stub cloud server acknowledges every
// management call. answer decides what an appraisal on each shard returns;
// it may wait on healed, which closes when the test ends.
type hop2Rig struct {
	c      *Controller
	led    *ledger.Ledger
	a, b   *cryptoutil.Identity
	answer func(shardName string, req wire.AppraisalRequest) (*wire.Report, error)
	drain  func(shardName string, req attestsrv.PeriodicControl) attestsrv.PeriodicBatch
	healed chan struct{}

	mu     sync.Mutex
	conns  map[string]net.Conn // latest server-side connection per address
	asked  []string            // shards that saw an appraisal, in order
	vmSeen []string            // non-appraisal attestsrv methods seen
}

func newHop2Rig(t *testing.T) *hop2Rig {
	t.Helper()
	r := &hop2Rig{
		led:    memLedger(t),
		a:      cryptoutil.MustIdentity("shard-a"),
		b:      cryptoutil.MustIdentity("shard-b"),
		conns:  make(map[string]net.Conn),
		healed: make(chan struct{}),
	}
	t.Cleanup(func() { close(r.healed) })
	network := rpc.NewMemNetwork()
	network.Intercept = func(addr string, client, srv net.Conn) (net.Conn, net.Conn) {
		r.mu.Lock()
		r.conns[addr] = srv
		r.mu.Unlock()
		return client, srv
	}
	anyPeer := func(string, ed25519.PublicKey) error { return nil }
	serve := func(id *cryptoutil.Identity, h rpc.Handler) {
		l, err := network.Listen(id.Name)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go rpc.Serve(l, secchan.Config{Identity: id, Verify: anyPeer}, h)
	}
	for _, id := range []*cryptoutil.Identity{r.a, r.b} {
		id := id
		serve(id, func(_ rpc.Peer, method string, body []byte) ([]byte, error) {
			if (method == attestsrv.MethodPeriodicFetch || method == attestsrv.MethodPeriodicStop) && r.drain != nil {
				var req attestsrv.PeriodicControl
				if err := rpc.Decode(body, &req); err != nil {
					return nil, err
				}
				return rpc.Encode(r.drain(id.Name, req))
			}
			if method != attestsrv.MethodAppraise {
				r.mu.Lock()
				r.vmSeen = append(r.vmSeen, method)
				r.mu.Unlock()
				return nil, nil
			}
			var req wire.AppraisalRequest
			if err := rpc.Decode(body, &req); err != nil {
				return nil, err
			}
			r.mu.Lock()
			r.asked = append(r.asked, id.Name)
			r.mu.Unlock()
			rep, err := r.answer(id.Name, req)
			if err != nil {
				return nil, err
			}
			return rpc.Encode(rep)
		})
	}
	serve(cryptoutil.MustIdentity("srv-a"), func(rpc.Peer, string, []byte) ([]byte, error) { return nil, nil })

	ring := shard.NewRing(1, 0)
	ring.Join(r.a.Name)
	r.c = New(Config{
		Identity: cryptoutil.MustIdentity("cloud-controller"),
		Network:  network,
		Clock:    vclock.New(sim.NewKernel(1)),
		Latency:  latency.New(1),
		Images:   image.NewLibrary(1),
		Verify:   anyPeer,
		Rand:     rand.Reader,
		Ring:     ring,
		Ledger:   r.led,
		RPC:      rpc.Policy{CallTimeout: 250 * time.Millisecond, MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 250 * time.Millisecond, BreakerThreshold: -1},
	})
	r.c.RegisterAttestShard(r.a.Name, r.a.Name, r.a.Public())
	r.c.RegisterAttestShard(r.b.Name, r.b.Name, r.b.Public())
	r.c.RegisterServer(ServerEntry{
		Name: "srv-a", Addr: "srv-a",
		Capacity: server.Capacity{VCPUs: 16, MemoryMB: 32768, DiskGB: 500},
		Props:    properties.All,
	})
	return r
}

// addVM installs a nova-database row directly, as a completed launch would.
func (r *hop2Rig) addVM(vid, state string) *vmRecord {
	rec := &vmRecord{Vid: vid, Owner: "alice", Server: "srv-a", State: state,
		Props: []properties.Property{properties.RuntimeIntegrity}}
	r.c.mu.Lock()
	r.c.vms[vid] = rec
	r.c.mu.Unlock()
	return rec
}

var hop2Healthy = properties.Verdict{Property: properties.RuntimeIntegrity, Healthy: true, Reason: "ok"}

func signedBy(id *cryptoutil.Identity) func(string, wire.AppraisalRequest) (*wire.Report, error) {
	return func(_ string, req wire.AppraisalRequest) (*wire.Report, error) {
		v := hop2Healthy
		v.Property = req.Prop
		return wire.BuildReport(id, req.Vid, req.ServerID, req.Prop, v, req.N2), nil
	}
}

// TestVerifiedAppraisalFollowsRedirectAndVerifiesUnderTheAnsweringKey: the
// ring's owner refuses with a wrong-shard redirect naming shard-b; the
// report shard-b signs is verified under shard-b's key.
func TestVerifiedAppraisalFollowsRedirectAndVerifiesUnderTheAnsweringKey(t *testing.T) {
	r := newHop2Rig(t)
	r.answer = func(name string, req wire.AppraisalRequest) (*wire.Report, error) {
		if name == r.a.Name {
			return nil, &shard.WrongShardError{Key: req.Vid, Owner: r.b.Name, Epoch: 2}
		}
		return signedBy(r.b)(name, req)
	}
	before := r.c.cfg.Clock.Now()
	rep, err := r.c.verifiedAppraisal(nil, "vm-0001", "srv-a", properties.RuntimeIntegrity)
	if err != nil || !rep.Verdict.Healthy {
		t.Fatalf("verifiedAppraisal across a redirect = (%+v, %v)", rep, err)
	}
	if got := strings.Join(r.asked, ","); got != "shard-a,shard-b" {
		t.Fatalf("appraisals went to %q, want shard-a then shard-b", got)
	}
	if n := r.c.metrics.Counter("controller/wrong-shard-redirects").Value(); n != 1 {
		t.Fatalf("wrong-shard-redirects = %d, want 1", n)
	}
	if adv := r.c.cfg.Clock.Now() - before; adv != r.c.cfg.Latency.HopRTT {
		t.Fatalf("virtual clock advanced %v, want one hop RTT (%v) however many shards were asked", adv, r.c.cfg.Latency.HopRTT)
	}
}

// TestOnDemandAppraisalRejectsASiblingShardsSignature: shard-a answers with
// a report carrying shard-b's (genuine, registered) signature. The report
// must verify under the answering shard's key, so it is a bad report. A
// periodic drain is held to the same rule (TestPeriodicDrainRejectsATamperedBatch).
func TestOnDemandAppraisalRejectsASiblingShardsSignature(t *testing.T) {
	r := newHop2Rig(t)
	r.answer = signedBy(r.b)
	_, err := r.c.verifiedAppraisal(nil, "vm-0001", "srv-a", properties.RuntimeIntegrity)
	if !isBadReport(err) {
		t.Fatalf("report signed by a registered but not answering shard: err = %v, want a bad report", err)
	}
}

// TestPeriodicDrainRejectsATamperedBatch: the owning shard answers a drain
// with one batch signed over the stream, the N2 the controller sent, every
// entry in order and the loss counts. A batch with an entry dropped, with
// Dropped or Skipped changed, signed under another N2 or by a registered
// sibling shard is rejected, and the rejection leaves no degraded entry:
// loss counts are believed only under a signature that checks.
func TestPeriodicDrainRejectsATamperedBatch(t *testing.T) {
	const vid = "vm-0001"
	prop := properties.RuntimeIntegrity
	rows := []struct {
		name   string
		signer func(r *hop2Rig) *cryptoutil.Identity
		stale  bool // signed under an N2 the controller never sent
		tamper func(b *attestsrv.PeriodicBatch)
	}{
		{name: "genuine"},
		{name: "entry dropped", tamper: func(b *attestsrv.PeriodicBatch) { b.Entries = b.Entries[1:] }},
		{name: "Dropped changed", tamper: func(b *attestsrv.PeriodicBatch) { b.Dropped = 0 }},
		{name: "Skipped changed", tamper: func(b *attestsrv.PeriodicBatch) { b.Skipped = 0 }},
		{name: "stale N2", stale: true},
		{name: "signed by a sibling shard", signer: func(r *hop2Rig) *cryptoutil.Identity { return r.b }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			r := newHop2Rig(t)
			r.addVM(vid, "active")
			unhealthy := properties.Verdict{Property: prop, Class: properties.FailureRuntime, Reason: "unexpected task"}
			r.drain = func(_ string, req attestsrv.PeriodicControl) attestsrv.PeriodicBatch {
				b := attestsrv.PeriodicBatch{Vid: req.Vid, Prop: req.Prop, N2: req.N2, Dropped: 2, Skipped: 1,
					Entries: []attestsrv.PeriodicEntry{{ServerID: "srv-a", Verdict: unhealthy}, {ServerID: "srv-a", Verdict: hop2Healthy}}}
				if row.stale {
					b.N2 = cryptoutil.MustNonce()
				}
				signer := r.a
				if row.signer != nil {
					signer = row.signer(r)
				}
				attestsrv.SignPeriodicBatch(signer, &b)
				if row.tamper != nil {
					row.tamper(&b)
				}
				return b
			}
			batch, err := r.c.DrainPeriodic(wire.StopPeriodicRequest{Vid: vid, Prop: prop, N1: cryptoutil.MustNonce()}, false)
			degraded, qerr := r.led.Query(ledger.Filter{Kind: ledger.KindDegraded, Vid: vid})
			if qerr != nil {
				t.Fatal(qerr)
			}
			if row.name == "genuine" {
				if err != nil || len(batch.Verdicts) != 2 || batch.Verdicts[0].Healthy || !batch.Verdicts[1].Healthy {
					t.Fatalf("genuine batch = (%+v, %v), want both verdicts in order", batch, err)
				}
				if len(degraded) != 1 {
					t.Fatalf("genuine batch with losses left %d degraded entries, want 1", len(degraded))
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), "rejecting periodic batch") || batch != nil {
				t.Fatalf("DrainPeriodic = (%+v, %v), want a rejection", batch, err)
			}
			if len(degraded) != 0 || r.c.metrics.Counter("controller/periodic-dropped-reports").Value() != 0 {
				t.Fatalf("a rejected batch recorded its loss counts: %d degraded entries", len(degraded))
			}
			if evs := r.c.Events(); len(evs) != 0 {
				t.Fatalf("a rejected batch remediated: %+v", evs)
			}
		})
	}
}

// TestAppraisalFailureClassesPerCaller drives each of the four callers of
// verifiedAppraisal through the three failure classes — the shard answered
// and refused, the infrastructure was unreachable (connection reset before
// the reply, or the shard partitioned so no reply ever comes), the report
// failed verification — and checks what only that caller decides: degrade
// to stale, unwind the launch, re-suspend, set the condition. No class ever
// remediates, and no caller waits on the shard past rpc.Policy.Budget.
func TestAppraisalFailureClassesPerCaller(t *testing.T) {
	const vid = "vm-0001"
	classes := map[string]func(r *hop2Rig) func(string, wire.AppraisalRequest) (*wire.Report, error){
		"refused": func(*hop2Rig) func(string, wire.AppraisalRequest) (*wire.Report, error) {
			return func(string, wire.AppraisalRequest) (*wire.Report, error) {
				return nil, errors.New("attestsrv: no references for VM")
			}
		},
		"unreachable": func(r *hop2Rig) func(string, wire.AppraisalRequest) (*wire.Report, error) {
			return func(name string, _ wire.AppraisalRequest) (*wire.Report, error) {
				r.mu.Lock()
				r.conns[name].Close()
				r.mu.Unlock()
				return nil, errors.New("never delivered")
			}
		},
		"partitioned": func(r *hop2Rig) func(string, wire.AppraisalRequest) (*wire.Report, error) {
			return func(string, wire.AppraisalRequest) (*wire.Report, error) {
				<-r.healed
				return nil, errors.New("never delivered")
			}
		},
		"bad-report": func(*hop2Rig) func(string, wire.AppraisalRequest) (*wire.Report, error) {
			return signedBy(cryptoutil.MustIdentity("mallory"))
		},
	}
	// within runs one caller and fails the test if it outlasted the bound
	// every RPC client holds itself to.
	within := func(t *testing.T, r *hop2Rig, caller func()) {
		t.Helper()
		budget := r.c.cfg.RPC.Budget()
		start := time.Now()
		caller()
		if d := time.Since(start); d > budget {
			t.Fatalf("the caller returned after %v, past rpc.Policy.Budget %v", d, budget)
		}
	}
	for class, script := range classes {
		class, script := class, script
		isRemote := func(err error) bool {
			var rerr *rpc.RemoteError
			return errors.As(err, &rerr)
		}

		t.Run(class+"/attest", func(t *testing.T) {
			r := newHop2Rig(t)
			r.answer = script(r)
			r.addVM(vid, "active")
			r.c.storeLastGood(vid, properties.RuntimeIntegrity, hop2Healthy)
			var rep *wire.CustomerReport
			var err error
			within(t, r, func() {
				rep, err = r.c.Attest(wire.AttestRequest{Vid: vid, Prop: properties.RuntimeIntegrity, N1: cryptoutil.MustNonce()})
			})
			stale := r.c.metrics.Counter("controller/degraded-stale-reports").Value()
			switch class {
			case "refused":
				if err == nil || !strings.HasPrefix(err.Error(), "controller: appraisal failed:") || !isRemote(err) || stale != 0 {
					t.Fatalf("refusal: rep=%+v err=%v stale=%d; want an undegraded remote failure", rep, err, stale)
				}
			case "unreachable", "partitioned":
				if err != nil || rep == nil || !rep.Stale || stale != 1 {
					t.Fatalf("unreachable: rep=%+v err=%v stale=%d; want the last-known-good verdict, stale", rep, err, stale)
				}
			case "bad-report":
				if err == nil || !strings.HasPrefix(err.Error(), "controller: rejecting attestation report:") || stale != 0 {
					t.Fatalf("bad report: rep=%+v err=%v stale=%d; want a rejection, never a stale serve", rep, err, stale)
				}
			}
			if evs := r.c.Events(); len(evs) != 0 {
				t.Fatalf("an appraisal failure remediated: %+v", evs)
			}
		})

		t.Run(class+"/launch", func(t *testing.T) {
			r := newHop2Rig(t)
			r.answer = script(r)
			var res LaunchResult
			var err error
			within(t, r, func() {
				res, err = r.c.LaunchVMTraced(obs.SpanContext{}, LaunchRequest{
					Owner: "alice", ImageName: "cirros", Flavor: "small", Workload: "idle",
					Props: []properties.Property{properties.RuntimeIntegrity}, Pin: -1,
				})
			})
			if err != nil || res.OK {
				t.Fatalf("launch with a failing startup appraisal = (%+v, %v), want a rejection", res, err)
			}
			want := "startup attestation failed: "
			if class == "bad-report" {
				want = "attestation report rejected: "
			}
			if !strings.HasPrefix(res.Reason, want) {
				t.Fatalf("launch reason %q, want prefix %q", res.Reason, want)
			}
			// Unwound: no VM row, no reservation, the appraiser told to
			// forget, and the place intent closed as failed.
			if _, err := r.c.VMServer(res.Vid); err == nil {
				t.Fatal("rejected launch left a VM record")
			}
			if used := r.c.UsedCapacity("srv-a"); used != (server.Capacity{}) {
				t.Fatalf("rejected launch leaked capacity: %+v", used)
			}
			if got := strings.Join(r.vmSeen, ","); got != attestsrv.MethodRegisterVM+","+attestsrv.MethodForgetVM {
				t.Fatalf("shard saw %q, want register-vm then forget-vm", got)
			}
			es, err := r.led.Query(ledger.Filter{Kind: ledger.KindIntent, Vid: res.Vid})
			if err != nil {
				t.Fatal(err)
			}
			closed := false
			for _, e := range es {
				var ir IntentRecord
				if e.Decode(&ir) == nil && ir.Op == "place" && ir.Phase == "end" {
					closed = !ir.OK
				}
			}
			if !closed {
				t.Fatal("place intent not closed OK:false")
			}
		})

		t.Run(class+"/recheck", func(t *testing.T) {
			r := newHop2Rig(t)
			r.answer = script(r)
			r.addVM(vid, "suspended")
			var active bool
			var err error
			within(t, r, func() { _, active, err = r.c.RecheckAndResume(vid) })
			want := "controller: recheck failed:"
			if class == "bad-report" {
				want = "controller: rejecting recheck report:"
			}
			if err == nil || active || !strings.HasPrefix(err.Error(), want) || isRemote(err) != (class == "refused") {
				t.Fatalf("recheck = (active %v, %v), want prefix %q", active, err, want)
			}
			if st, _ := r.c.VMState(vid); st != "suspended" {
				t.Fatalf("VM left %q after a failed recheck, want re-suspended", st)
			}
		})

		t.Run(class+"/reattest", func(t *testing.T) {
			r := newHop2Rig(t)
			r.answer = script(r)
			rec := r.addVM(vid, "active")
			within(t, r, func() { r.c.reattest(rec) })
			cond := condOf(rec, condAttested)
			want := map[string]wire.Condition{
				"refused":     {Status: statusFalse, Reason: "AppraisalRefused"},
				"unreachable": {Status: statusUnknown, Reason: "InfraUnreachable"},
				"partitioned": {Status: statusUnknown, Reason: "InfraUnreachable"},
				"bad-report":  {Status: statusFalse, Reason: "BadReport"},
			}[class]
			if cond.Status != want.Status || cond.Reason != want.Reason {
				t.Fatalf("Attested condition = %s/%s (%s), want %s/%s", cond.Status, cond.Reason, cond.Message, want.Status, want.Reason)
			}
			degraded := r.c.metrics.Counter("controller/reattest-degraded").Value()
			if (degraded == 1) != (class == "unreachable" || class == "partitioned") {
				t.Fatalf("reattest-degraded = %d for class %s", degraded, class)
			}
			if evs := r.c.Events(); len(evs) != 0 {
				t.Fatalf("an appraisal failure remediated: %+v", evs)
			}
		})
	}
}
