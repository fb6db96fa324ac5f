package rpc

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/ledger"
	"cloudmonatt/internal/metrics"
	"cloudmonatt/internal/obs"
	"cloudmonatt/internal/secchan"
)

// dialLog is a MemNetwork that records the address of every dial.
type dialLog struct {
	*MemNetwork
	mu    sync.Mutex
	dials []string
}

func (d *dialLog) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	d.mu.Lock()
	d.dials = append(d.dials, addr)
	d.mu.Unlock()
	return d.MemNetwork.DialContext(ctx, addr)
}

func newTestPeerSet(t *testing.T, n Network, p Policy) (*PeerSet, *metrics.Registry, *ledger.Ledger) {
	t.Helper()
	led, err := ledger.Open(ledger.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	return NewPeerSet(PeerSetConfig{
		Entity:  "tester",
		Network: n,
		Secchan: secchan.Config{Identity: cryptoutil.MustIdentity("tester"), Verify: verifyAny},
		Policy:  p,
		Metrics: reg,
		Ledger:  led,
		Now:     func() time.Duration { return 7 * time.Second },
	}), reg, led
}

// TestPeerSetDialsLazilyAndRedialsOnReRegister: registering and fetching a
// client dial nothing; the first call dials the registered address; and
// re-registering the name drops the stale client so the next call dials the
// new address.
func TestPeerSetDialsLazilyAndRedialsOnReRegister(t *testing.T) {
	n := &dialLog{MemNetwork: NewMemNetwork()}
	startEcho(t, n, "old", cryptoutil.MustIdentity("srv"))
	startEcho(t, n, "new", cryptoutil.MustIdentity("srv"))
	ps, _, _ := newTestPeerSet(t, n, Policy{CallTimeout: time.Second, MaxAttempts: 1})

	if _, ok := ps.Client("srv"); ok {
		t.Fatal("client handed out for an unregistered peer")
	}
	ps.Register("srv", "old")
	first, ok := ps.Client("srv")
	if !ok || len(n.dials) != 0 {
		t.Fatalf("Register+Client: ok=%v, dials=%v; want a client and no dial", ok, n.dials)
	}
	var resp echoResp
	if err := first.Call("echo", echoReq{Text: "a"}, &resp); err != nil {
		t.Fatal(err)
	}
	if again, _ := ps.Client("srv"); again != first {
		t.Fatal("a second lookup built a second client")
	}

	ps.Register("srv", "new")
	second, _ := ps.Client("srv")
	if second == first {
		t.Fatal("re-registering the peer kept the client for the old address")
	}
	if err := second.Call("echo", echoReq{Text: "b"}, &resp); err != nil {
		t.Fatal(err)
	}
	if want := []string{"old", "new"}; len(n.dials) != 2 || n.dials[0] != want[0] || n.dials[1] != want[1] {
		t.Fatalf("dials = %v, want %v", n.dials, want)
	}
}

// TestPeerSetHealthSorted: one row per built channel, sorted by peer.
func TestPeerSetHealthSorted(t *testing.T) {
	ps, _, _ := newTestPeerSet(t, NewMemNetwork(), Policy{CallTimeout: time.Second})
	for _, peer := range []string{"server-b", "attest-z", "server-a"} {
		ps.Register(peer, peer)
		ps.Client(peer)
	}
	ps.Register("never-used", "x")
	got := ps.Health()
	want := []obs.PeerHealth{{Peer: "attest-z", Breaker: "closed"}, {Peer: "server-a", Breaker: "closed"}, {Peer: "server-b", Breaker: "closed"}}
	if len(got) != len(want) {
		t.Fatalf("Health() = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Health()[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestPeerSetRecordsRetryAndBreakerOpen: one call against a dead peer with
// two attempts and a threshold-1 breaker is exactly one breaker-open and one
// retry — three counters and two rpc-fault ledger entries, both of the one
// payload shape.
func TestPeerSetRecordsRetryAndBreakerOpen(t *testing.T) {
	ps, reg, led := newTestPeerSet(t, NewMemNetwork(), Policy{CallTimeout: time.Second,
		MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond,
		BreakerThreshold: 1, BreakerCooldown: time.Minute})
	ps.Register("server-dead", "nowhere")
	rc, _ := ps.Client("server-dead")
	if err := rc.Call("echo", echoReq{}, nil); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("call to a dead peer: %v, want the breaker to reject the second attempt", err)
	}
	for name, want := range map[string]int64{
		"tester/rpc-retries": 1, "tester/rpc-breaker-transitions": 1, "tester/rpc-breaker-opens": 1,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	es, err := led.Query(ledger.Filter{Kind: ledger.KindRPCFault})
	if err != nil || len(es) != 2 {
		t.Fatalf("rpc-fault entries: %d (err %v), want 2", len(es), err)
	}
	var faults []FaultRecord
	for _, e := range es {
		if e.At != 7*time.Second {
			t.Errorf("entry stamped %v, want the peer set's clock (7s)", e.At)
		}
		var f FaultRecord
		if err := e.Decode(&f); err != nil {
			t.Fatalf("payload %x is not a FaultRecord: %v", e.Payload, err)
		}
		faults = append(faults, f)
	}
	if f := faults[0]; f != (FaultRecord{Event: "breaker", Peer: "server-dead", From: "closed", To: "open"}) {
		t.Errorf("breaker entry = %+v", f)
	}
	if f := faults[1]; f.Event != "retry" || f.Peer != "server-dead" || f.Method != "echo" || f.Attempt != 2 || f.Err == "" || f.From != "" || f.To != "" {
		t.Errorf("retry entry = %+v", f)
	}
	if got := ps.Health(); len(got) != 1 || got[0].Breaker != "open" {
		t.Errorf("Health() = %+v, want the one channel open", got)
	}
}
