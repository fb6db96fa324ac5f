package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/obs"
	"cloudmonatt/internal/secchan"
)

// waitGoroutines fails the test if the goroutine count does not drop back
// to max within a grace period — the leak check for the deadline tests.
func waitGoroutines(t *testing.T, max int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > max {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d running, want <= %d\n%s",
				runtime.NumGoroutine(), max, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPartitionedCallsReturnWithinDeadline is the acceptance test for the
// deadline plumbing: with the peer blackholed mid-session, every Call must
// return within its per-attempt timeout bound and leak no goroutines.
func TestPartitionedCallsReturnWithinDeadline(t *testing.T) {
	inner := NewMemNetwork()
	fn := NewFaultNetwork(inner, FaultConfig{Seed: 7})
	startEcho(t, fn, "srv", cryptoutil.MustIdentity("server"))

	before := runtime.NumGoroutine()
	rc := NewReconnectClient(ClientConfig{
		Network: fn, Addr: "srv", Peer: "srv",
		Secchan: secchan.Config{Identity: cryptoutil.MustIdentity("cust"), Verify: verifyAny},
		Policy:  Policy{CallTimeout: 150 * time.Millisecond, MaxAttempts: 2, BaseDelay: 5 * time.Millisecond, MaxDelay: 10 * time.Millisecond, BreakerThreshold: -1},
	})
	var resp echoResp
	if err := rc.Call("echo", echoReq{Text: "warm"}, &resp); err != nil {
		t.Fatal(err)
	}

	fn.Partition("srv")
	// 2 attempts x 150ms + backoff; anything near a second means a call
	// escaped its deadline.
	const bound = 1200 * time.Millisecond
	for i := 0; i < 3; i++ {
		start := time.Now()
		err := rc.Call("echo", echoReq{Text: "blackhole"}, &resp)
		elapsed := time.Since(start)
		if err == nil {
			t.Fatal("call succeeded across a partition")
		}
		if elapsed > bound {
			t.Fatalf("call %d blocked %v across a partition, want < %v (err: %v)", i, elapsed, bound, err)
		}
	}
	if st := fn.Stats(); st.PartitionWaits == 0 {
		t.Fatal("no operation ever blocked on the partition — fault injection inert")
	}

	// Heal: the same client must recover without intervention.
	fn.HealAll()
	if err := rc.Call("echo", echoReq{Text: "healed"}, &resp); err != nil {
		t.Fatalf("call after heal: %v", err)
	}
	if resp.Text != "healed" {
		t.Fatalf("echo after heal returned %q", resp.Text)
	}

	rc.Close()
	waitGoroutines(t, before)
}

// TestDialContextBoundedWhenListenerNotAccepting covers the in-memory
// dial handoff: a listener that exists but never accepts must not block the
// dialer past its context deadline.
func TestDialContextBoundedWhenListenerNotAccepting(t *testing.T) {
	n := NewMemNetwork()
	l, err := n.Listen("idle")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Nobody calls l.Accept.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = n.DialContext(ctx, "idle")
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("dial succeeded with nobody accepting")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if elapsed > time.Second {
		t.Fatalf("dial blocked %v past its deadline", elapsed)
	}
}

// flakyListener fails its first N Accepts with a transient error, then
// delegates to the real listener.
type flakyListener struct {
	net.Listener
	mu    sync.Mutex
	fails int
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	if l.fails > 0 {
		l.fails--
		l.mu.Unlock()
		return nil, errors.New("accept: resource temporarily unavailable")
	}
	l.mu.Unlock()
	return l.Listener.Accept()
}

// TestServeSurvivesTransientAcceptErrors covers the Accept retry loop:
// transient failures must not kill the serve loop, and a closed listener
// must still terminate it.
func TestServeSurvivesTransientAcceptErrors(t *testing.T) {
	n := NewMemNetwork()
	inner, err := n.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	l := &flakyListener{Listener: inner, fails: 3}
	server := cryptoutil.MustIdentity("server")
	done := make(chan struct{})
	go func() {
		Serve(l, secchan.Config{Identity: server, Verify: verifyAny}, func(peer Peer, method string, body []byte) ([]byte, error) {
			return Encode(echoResp{Text: "alive"})
		})
		close(done)
	}()

	c, err := DialContext(context.Background(), n, "srv", secchan.Config{Identity: cryptoutil.MustIdentity("x"), Verify: verifyAny})
	if err != nil {
		t.Fatalf("dial after transient accept failures: %v", err)
	}
	var resp echoResp
	if err := c.Call("any", echoReq{}, &resp); err != nil {
		t.Fatalf("call after transient accept failures: %v", err)
	}
	if resp.Text != "alive" {
		t.Fatalf("got %q", resp.Text)
	}
	c.Close()

	inner.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after listener close")
	}
}

// TestBreakerOpensAndRecovers drives the breaker through its full cycle:
// consecutive dial failures trip it open, calls then fail fast with
// ErrBreakerOpen, and after the cooldown a successful probe closes it.
func TestBreakerOpensAndRecovers(t *testing.T) {
	n := NewMemNetwork()
	var mu sync.Mutex
	var transitions []string
	rc := NewReconnectClient(ClientConfig{
		Network: n, Addr: "down", Peer: "down",
		Secchan: secchan.Config{Identity: cryptoutil.MustIdentity("cust"), Verify: verifyAny},
		Policy:  Policy{CallTimeout: time.Second, MaxAttempts: 1, BreakerThreshold: 2, BreakerCooldown: 50 * time.Millisecond},
		OnEvent: func(ev Event) {
			if ev.Kind == EventBreaker {
				mu.Lock()
				transitions = append(transitions, ev.From.String()+">"+ev.To.String())
				mu.Unlock()
			}
		},
	})
	defer rc.Close()

	// Two consecutive dial failures (nothing listens at "down") trip the
	// threshold-2 breaker.
	var resp echoResp
	for i := 0; i < 2; i++ {
		if err := rc.Call("echo", echoReq{}, &resp); err == nil {
			t.Fatal("call to a dead address succeeded")
		}
	}
	if st := rc.BreakerState(); st != BreakerOpen {
		t.Fatalf("breaker %v after %d failures, want open", st, 2)
	}
	start := time.Now()
	err := rc.Call("echo", echoReq{}, &resp)
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("want ErrBreakerOpen while open, got %v", err)
	}
	if time.Since(start) > 50*time.Millisecond {
		t.Fatalf("open breaker did not fail fast (%v)", time.Since(start))
	}

	// Bring the peer up; after the cooldown, the half-open probe succeeds
	// and closes the breaker.
	startEcho(t, n, "down", cryptoutil.MustIdentity("server"))
	time.Sleep(60 * time.Millisecond)
	if err := rc.Call("echo", echoReq{Text: "probe"}, &resp); err != nil {
		t.Fatalf("probe after cooldown: %v", err)
	}
	if st := rc.BreakerState(); st != BreakerClosed {
		t.Fatalf("breaker %v after successful probe, want closed", st)
	}
	mu.Lock()
	got := append([]string(nil), transitions...)
	mu.Unlock()
	want := []string{"closed>open", "open>half-open", "half-open>closed"}
	if len(got) != len(want) {
		t.Fatalf("transitions %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("transitions %v, want %v", got, want)
		}
	}
}

// TestIdemKeyDeduplicates covers the server-side idempotency cache: the
// handler runs at most once per key, and duplicates (a retried remediation
// RPC) replay the first execution's response.
func TestIdemKeyDeduplicates(t *testing.T) {
	n := NewMemNetwork()
	l, err := n.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	var count atomic.Int64
	go Serve(l, secchan.Config{Identity: cryptoutil.MustIdentity("server"), Verify: verifyAny},
		func(peer Peer, method string, body []byte) ([]byte, error) {
			count.Add(1)
			return Encode(echoResp{Text: "run"})
		})

	c, err := DialContext(context.Background(), n, "srv", secchan.Config{Identity: cryptoutil.MustIdentity("cust"), Verify: verifyAny})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	key := newIdemKey()
	var r1, r2, r3 echoResp
	if err := c.call(context.Background(), obs.SpanContext{}, time.Time{}, "terminate", key, echoReq{Text: "vm-1"}, &r1); err != nil {
		t.Fatal(err)
	}
	if err := c.call(context.Background(), obs.SpanContext{}, time.Time{}, "terminate", key, echoReq{Text: "vm-1"}, &r2); err != nil {
		t.Fatal(err)
	}
	if got := count.Load(); got != 1 {
		t.Fatalf("handler executed %d times for one idempotency key, want 1", got)
	}
	if r1.Text != r2.Text {
		t.Fatalf("replayed response %q differs from original %q", r2.Text, r1.Text)
	}
	if err := c.call(context.Background(), obs.SpanContext{}, time.Time{}, "terminate", newIdemKey(), echoReq{Text: "vm-1"}, &r3); err != nil {
		t.Fatal(err)
	}
	if got := count.Load(); got != 2 {
		t.Fatalf("handler executed %d times across two keys, want 2", got)
	}
}

// TestCallFreshRetriesThroughChaos runs calls through a network injecting
// mid-stream resets and dropped dials; CallFresh must rebuild the request
// per attempt and every call must eventually land.
func TestCallFreshRetriesThroughChaos(t *testing.T) {
	inner := NewMemNetwork()
	fn := NewFaultNetwork(inner, FaultConfig{
		Seed:      11,
		DropRate:  0.2,
		ResetRate: 0.4,
	})
	startEcho(t, fn, "srv", cryptoutil.MustIdentity("server"))
	rc := NewReconnectClient(ClientConfig{
		Network: fn, Addr: "srv", Peer: "srv",
		Secchan: secchan.Config{Identity: cryptoutil.MustIdentity("cust"), Verify: verifyAny},
		Policy:  Policy{CallTimeout: 2 * time.Second, MaxAttempts: 10, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, BreakerThreshold: -1},
	})
	defer rc.Close()

	rebuilds := 0
	for i := 0; i < 20; i++ {
		var resp echoResp
		err := rc.CallFresh(context.Background(), "echo", func() (any, error) {
			rebuilds++
			return echoReq{Text: "chaos"}, nil
		}, &resp)
		if err != nil {
			t.Fatalf("call %d failed through chaos: %v", i, err)
		}
		if resp.Text != "chaos" {
			t.Fatalf("call %d echoed %q", i, resp.Text)
		}
	}
	st := fn.Stats()
	if st.Drops == 0 && st.Resets == 0 {
		t.Fatalf("no faults injected (stats %+v) — chaos inert", st)
	}
	if rebuilds <= 20 {
		t.Fatalf("request rebuilt %d times for 20 calls — no retry ever rebuilt it", rebuilds)
	}
}

// TestEachCallFormRetriesAReset: the peer reads the first request of each
// call, runs its handler and resets the connection before replying. Every
// call form retries that, each safely in its own way: CallCtx re-sends the
// same idempotent request, CallFresh sends a rebuilt one, and CallIdem
// re-sends its one key, so the handler runs once and the retry receives
// the recorded response.
func TestEachCallFormRetriesAReset(t *testing.T) {
	ctx := context.Background()
	rows := []struct {
		name string
		call func(rc *ReconnectClient, resp *echoResp) error
		ran  []string // the requests the handler ran, in order
		keys int      // idempotency keys the server recorded
		resp string
	}{
		{"CallCtx", func(rc *ReconnectClient, resp *echoResp) error {
			return rc.CallCtx(ctx, "echo", echoReq{Text: "query"}, resp)
		}, []string{"query", "query"}, 0, "query #2"},
		{"CallFresh", func(rc *ReconnectClient, resp *echoResp) error {
			builds := 0
			return rc.CallFresh(ctx, "echo", func() (any, error) {
				builds++
				return echoReq{Text: fmt.Sprintf("nonce %d", builds)}, nil
			}, resp)
		}, []string{"nonce 1", "nonce 2"}, 0, "nonce 2 #2"},
		{"CallIdem", func(rc *ReconnectClient, resp *echoResp) error {
			return rc.CallIdem(ctx, "echo", echoReq{Text: "terminate"}, resp)
		}, []string{"terminate"}, 1, "terminate #1"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			n := NewMemNetwork()
			var mu sync.Mutex
			var conns []net.Conn // server ends, in dial order
			var ran []string
			n.Intercept = func(_ string, client, server net.Conn) (net.Conn, net.Conn) {
				mu.Lock()
				conns = append(conns, server)
				mu.Unlock()
				return client, server
			}
			l, err := n.Listen("srv")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { l.Close() })
			idem := newIdemCache(idemCacheSize)
			cfg := secchan.Config{Identity: cryptoutil.MustIdentity("server"), Verify: verifyAny}
			h := func(_ Peer, _ string, body []byte) ([]byte, error) {
				var req echoReq
				if err := Decode(body, &req); err != nil {
					return nil, err
				}
				mu.Lock()
				defer mu.Unlock()
				ran = append(ran, req.Text)
				if len(ran) == 1 {
					conns[len(conns)-1].Close() // read, run, never answered
				}
				return Encode(echoResp{Text: fmt.Sprintf("%s #%d", req.Text, len(ran))})
			}
			go func() {
				for {
					raw, err := l.Accept()
					if err != nil {
						return
					}
					go serveConn(raw, cfg, h, idem)
				}
			}()
			rc := NewReconnectClient(ClientConfig{
				Network: n, Addr: "srv", Peer: "srv",
				Secchan: secchan.Config{Identity: cryptoutil.MustIdentity("cust"), Verify: verifyAny},
				Policy:  Policy{CallTimeout: 2 * time.Second, MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, BreakerThreshold: -1},
			})
			defer rc.Close()
			var resp echoResp
			if err := row.call(rc, &resp); err != nil {
				t.Fatalf("call across a reset after the request was read: %v", err)
			}
			mu.Lock()
			defer mu.Unlock()
			if fmt.Sprint(ran) != fmt.Sprint(row.ran) {
				t.Errorf("the handler ran %q, want %q", ran, row.ran)
			}
			idem.mu.Lock()
			keys := idem.order.Len()
			idem.mu.Unlock()
			if keys != row.keys {
				t.Errorf("the server recorded %d idempotency keys, want %d", keys, row.keys)
			}
			if resp.Text != row.resp {
				t.Errorf("response %q, want %q", resp.Text, row.resp)
			}
		})
	}
}

// TestRemoteErrorNotRetried: a handler rejection round-tripped fine — the
// client must not burn retries or trip the breaker on it.
func TestRemoteErrorNotRetried(t *testing.T) {
	n := NewMemNetwork()
	startEcho(t, n, "srv", cryptoutil.MustIdentity("server"))
	retries := 0
	rc := NewReconnectClient(ClientConfig{
		Network: n, Addr: "srv", Peer: "srv",
		Secchan: secchan.Config{Identity: cryptoutil.MustIdentity("cust"), Verify: verifyAny},
		Policy:  Policy{MaxAttempts: 5, BaseDelay: time.Millisecond, BreakerThreshold: 1, BreakerCooldown: time.Hour},
		OnEvent: func(ev Event) {
			if ev.Kind == EventRetry {
				retries++
			}
		},
	})
	defer rc.Close()
	err := rc.CallFresh(context.Background(), "fail", func() (any, error) { return echoReq{}, nil }, nil)
	var rerr *RemoteError
	if !errors.As(err, &rerr) {
		t.Fatalf("want RemoteError, got %v", err)
	}
	if retries != 0 {
		t.Fatalf("remote rejection retried %d times, want 0", retries)
	}
	if st := rc.BreakerState(); st != BreakerClosed {
		t.Fatalf("breaker %v after remote rejection, want closed (transport was healthy)", st)
	}
}
