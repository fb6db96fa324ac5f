package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	mathrand "math/rand"
	"runtime"
	"testing"
	"time"

	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/obs"
	"cloudmonatt/internal/secchan"
)

// TestWatchdogRaceNeverPoisons sweeps a call's deadline across the length
// of its exchange, so the watchdog fires before, during and just as the
// exchange ends. Each call must leave its connection usable or marked
// broken (the next call then fails fast with ErrClientBroken); an interrupt
// landing after a call that returned healthy would poison the connection
// silently, and the next call would fail in transport after sending.
func TestWatchdogRaceNeverPoisons(t *testing.T) {
	n := NewMemNetwork()
	startEcho(t, n, "srv", cryptoutil.MustIdentity("server"))
	cfg := secchan.Config{Identity: cryptoutil.MustIdentity("cust"), Verify: verifyAny}
	c, err := DialContext(context.Background(), n, "srv", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { c.Close() }()
	var resp echoResp
	start := time.Now()
	const warm = 50
	for i := 0; i < warm; i++ {
		if err := c.Call("echo", echoReq{Text: "warm"}, &resp); err != nil {
			t.Fatal(err)
		}
	}
	rtt := time.Since(start) / warm

	var broken, healthy int
	for i := 0; i < 600; i++ {
		d := rtt * time.Duration(i%30) / 10 // 0 to 3 exchanges
		if i%30 == 29 {
			d = time.Second
		}
		err := c.call(context.Background(), obs.SpanContext{}, time.Now().Add(d), "echo", "", echoReq{Text: "race"}, &resp)
		if c.Broken() {
			broken++
			if err := c.Call("echo", echoReq{Text: "after"}, &resp); !errors.Is(err, ErrClientBroken) {
				t.Fatalf("call on a broken connection: %v, want ErrClientBroken", err)
			}
			c.Close()
			if c, err = DialContext(context.Background(), n, "srv", cfg); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("deadline %v: call failed (%v) and left the connection unbroken", d, err)
		}
		healthy++
		runtime.Gosched() // let a late interrupt land, if one were pending
		if err := c.Call("echo", echoReq{Text: "after"}, &resp); err != nil || resp.Text != "after" {
			t.Fatalf("deadline %v: the connection was poisoned silently: %v", d, err)
		}
	}
	t.Logf("exchange ~%v: %d calls left the connection healthy, %d broke it", rtt, healthy, broken)
	if broken == 0 || healthy == 0 {
		t.Fatalf("%d healthy, %d broken: the sweep missed one side of the race", healthy, broken)
	}
}

// TestReconnectClientBoundsItself: handed a context that never ends, every
// entry point of a ReconnectClient still returns within Policy.Budget when its
// peer is partitioned — whether the partition blackholes a live connection
// or every redial — or takes requests and never answers, where the bound
// must interrupt a read blocked on the connection itself; and it leaves no
// goroutine behind.
func TestReconnectClientBoundsItself(t *testing.T) {
	fn := NewFaultNetwork(NewMemNetwork(), FaultConfig{Seed: 3})
	startEcho(t, fn, "srv", cryptoutil.MustIdentity("server"))
	stall, err := fn.Listen("stall")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stall.Close() })
	release := make(chan struct{})
	go Serve(stall, secchan.Config{Identity: cryptoutil.MustIdentity("stall"), Verify: verifyAny}, func(Peer, string, []byte) ([]byte, error) {
		<-release
		return nil, nil
	})
	before := runtime.NumGoroutine()
	cfg := ClientConfig{
		Network: fn, Addr: "srv", Peer: "srv",
		Secchan: secchan.Config{Identity: cryptoutil.MustIdentity("cust"), Verify: verifyAny},
		Policy:  Policy{CallTimeout: 100 * time.Millisecond, MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 100 * time.Millisecond, BreakerThreshold: -1},
	}
	budget := cfg.Policy.Budget()
	ctx := context.Background()
	var resp echoResp
	calls := []struct {
		name string
		call func(*ReconnectClient) error
	}{
		{"CallCtx", func(rc *ReconnectClient) error { return rc.CallCtx(ctx, "echo", echoReq{Text: "x"}, &resp) }},
		{"CallFresh", func(rc *ReconnectClient) error {
			return rc.CallFresh(ctx, "echo", func() (any, error) { return echoReq{Text: "x"}, nil }, &resp)
		}},
		{"CallIdem", func(rc *ReconnectClient) error {
			return rc.CallIdem(ctx, "echo", echoReq{Text: "x"}, &resp)
		}},
		{"Connect", func(rc *ReconnectClient) error { return rc.Connect(ctx) }},
	}
	for _, c := range calls {
		for _, peer := range []string{"partitioned, live connection", "partitioned", "stalled"} {
			if c.name == "Connect" && peer != "partitioned" {
				continue // a live connection is all Connect asks for
			}
			fn.HealAll()
			cfg := cfg
			if peer == "stalled" {
				cfg.Addr, cfg.Peer = "stall", "stall"
			}
			rc := NewReconnectClient(cfg)
			if peer == "partitioned, live connection" {
				if err := rc.Connect(ctx); err != nil {
					t.Fatal(err)
				}
			}
			if peer != "stalled" {
				fn.Partition("srv")
			}
			start := time.Now()
			// A call its bound never wakes fails here, not at the package timeout.
			err := within(t, 2*budget, c.name, func() error { return c.call(rc) })
			elapsed := time.Since(start)
			rc.Close()
			if err == nil {
				t.Fatalf("%s (%s peer) succeeded", c.name, peer)
			}
			if elapsed > budget {
				t.Fatalf("%s (%s peer) returned after %v, past Policy.Budget %v: %v", c.name, peer, elapsed, budget, err)
			}
		}
	}
	if st := fn.Stats(); st.PartitionWaits == 0 {
		t.Fatal("no operation ever blocked on the partition — fault injection inert")
	}
	fn.HealAll()
	close(release)
	waitGoroutines(t, before)
}

// TestIdemCacheRingBounded: a full idempotency cache admits each new key by
// evicting the oldest, holding exactly idemCacheSize, and a duplicate still
// inside the window replays the first execution's response.
func TestIdemCacheRingBounded(t *testing.T) {
	c := newIdemCache(idemCacheSize)
	runs := 0
	do := func(key string) responseEnvelope {
		return c.do(key, func() responseEnvelope {
			runs++
			return responseEnvelope{Body: []byte(key)}
		})
	}
	const keys = 10 * idemCacheSize
	for i := 0; i < keys; i++ {
		do(fmt.Sprintf("k%d", i))
	}
	if len(c.entries) != idemCacheSize || runs != keys {
		t.Fatalf("%d distinct keys: %d cached, %d runs; want %d cached, %d runs", keys, len(c.entries), runs, idemCacheSize, keys)
	}
	for _, i := range []int{keys - idemCacheSize, keys - 1} {
		key := fmt.Sprintf("k%d", i)
		if r := do(key); runs != keys || !bytes.Equal(r.Body, []byte(key)) {
			t.Fatalf("duplicate %s inside the window: %d runs, replayed %q", key, runs, r.Body)
		}
	}
	if do(fmt.Sprintf("k%d", keys-idemCacheSize-1)); runs != keys+1 {
		t.Fatal("a key evicted from the window replayed instead of running again")
	}
}

// TestBackoffJitterBuiltLazily: a client builds its jitter source on its
// first backoff, not at construction, and draws the sequence its address
// always gave.
func TestBackoffJitterBuiltLazily(t *testing.T) {
	rc := NewReconnectClient(ClientConfig{
		Network: NewMemNetwork(), Addr: "srv",
		Policy: Policy{BaseDelay: time.Millisecond, MaxDelay: time.Second},
	})
	if rc.rng != nil {
		t.Fatal("jitter source built before any backoff")
	}
	h := fnv.New64a()
	h.Write([]byte("srv"))
	eager := mathrand.New(mathrand.NewSource(int64(h.Sum64())))
	for attempt := 1; attempt <= 8; attempt++ {
		d := time.Millisecond << (attempt - 1)
		want := time.Duration(float64(d) * (1 - backoffJitter*eager.Float64()))
		if got := rc.backoff(attempt); got != want {
			t.Fatalf("backoff before attempt %d: %v, want %v", attempt, got, want)
		}
	}
}

// TestPolicyDefaults pins the value each zero Policy field takes, the
// budget of the zero policy, and the breaker either threshold gives.
func TestPolicyDefaults(t *testing.T) {
	p := Policy{}.withDefaults()
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"CallTimeout", p.CallTimeout, 30 * time.Second},
		{"MaxAttempts", p.MaxAttempts, 4},
		{"BaseDelay", p.BaseDelay, 25 * time.Millisecond},
		{"MaxDelay", p.MaxDelay, time.Second},
		{"BreakerThreshold", p.BreakerThreshold, 8},
		{"BreakerCooldown", p.BreakerCooldown, time.Second},
		{"Budget", Policy{}.Budget(), 123 * time.Second}, // 4×30s + 3×1s
		{"a set field is kept", Policy{MaxAttempts: 2, BreakerThreshold: -1}.withDefaults(), Policy{
			CallTimeout: 30 * time.Second, MaxAttempts: 2, BaseDelay: 25 * time.Millisecond, MaxDelay: time.Second,
			BreakerThreshold: -1, BreakerCooldown: time.Second,
		}},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}

	b := newBreaker(p, nil)
	for i := 1; i < p.BreakerThreshold; i++ {
		b.failure()
	}
	if b.State() != BreakerClosed {
		t.Fatalf("breaker %v after %d failures, want closed below the threshold", b.State(), p.BreakerThreshold-1)
	}
	if b.failure(); b.State() != BreakerOpen {
		t.Fatalf("breaker %v at the threshold, want open", b.State())
	}

	off := newBreaker(Policy{BreakerThreshold: -1}.withDefaults(), nil)
	for i := 0; i < 100; i++ {
		off.failure()
		if err := off.allow(); err != nil || off.State() != BreakerClosed {
			t.Fatalf("a disabled breaker after %d failures: %v, state %v", i+1, err, off.State())
		}
	}
}
