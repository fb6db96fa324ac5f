package rpc

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	mathrand "math/rand/v2"
	"net"
	"os"
	"sync"
	"syscall"
	"time"
)

// FaultConfig tunes the failures a FaultNetwork injects. All rates are
// probabilities in [0, 1]; every draw comes from a seeded stream so runs
// are reproducible.
type FaultConfig struct {
	Seed int64
	// DropRate is the fraction of dial attempts refused outright
	// (connection refused / SYN dropped).
	DropRate float64
	// HandshakeFailRate is the fraction of established connections reset
	// before a single byte moves (accept-then-RST).
	HandshakeFailRate float64
	// ResetRate is the fraction of connections reset mid-stream, after a
	// random handful of reads/writes.
	ResetRate float64
	// DelayRate is the per-operation probability of injected latency,
	// uniform in (0, MaxDelay].
	DelayRate float64
	MaxDelay  time.Duration
}

// FaultStats counts the faults a FaultNetwork has injected.
type FaultStats struct {
	Dials          int64 // dial attempts observed
	Drops          int64 // dials refused
	HandshakeFails int64 // connections reset before any byte
	Resets         int64 // connections reset mid-stream
	Delays         int64 // operations delayed
	PartitionWaits int64 // operations that blocked on a partition
}

// FaultNetwork wraps a Network and injects connection drops, latency,
// partitions (blackholes), handshake failures and mid-stream resets — the
// failure modes the fault-tolerant RPC layer must survive.
//
// Each dial draws its connection's plan, and that connection's per-operation
// delays, from its own stream derived from (Seed, address, how many dials to
// that address came before). What one connection meets therefore depends on
// the seed and that address's dial history alone, not on how goroutines
// dialing other addresses or operating other connections interleave.
type FaultNetwork struct {
	inner Network

	mu    sync.Mutex
	cfg   FaultConfig
	parts map[string]bool
	dials map[string]uint64 // per address: dials so far, the next dial's ordinal
	stats FaultStats
}

// NewFaultNetwork wraps inner with fault injection.
func NewFaultNetwork(inner Network, cfg FaultConfig) *FaultNetwork {
	return &FaultNetwork{
		inner: inner,
		cfg:   cfg,
		parts: make(map[string]bool),
		dials: make(map[string]uint64),
	}
}

// Inner returns the wrapped network (the testbed unwraps it to detect
// in-memory addressing).
func (f *FaultNetwork) Inner() Network { return f.inner }

// Stats returns a snapshot of the injected-fault counters.
func (f *FaultNetwork) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Partition blackholes an address: new dials and in-flight operations on
// existing connections block until the partition heals or the caller's
// deadline expires — exactly how a silently dropped route behaves.
func (f *FaultNetwork) Partition(addr string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.parts[addr] = true
}

// Heal removes a partition.
func (f *FaultNetwork) Heal(addr string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.parts, addr)
}

// HealAll removes every partition.
func (f *FaultNetwork) HealAll() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.parts = make(map[string]bool)
}

func (f *FaultNetwork) partitioned(addr string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.parts[addr]
}

// Listen passes through to the wrapped network.
func (f *FaultNetwork) Listen(addr string) (net.Listener, error) { return f.inner.Listen(addr) }

// connPlan is the per-connection fault schedule, drawn at dial time.
type connPlan struct {
	drop    bool
	delay   time.Duration
	opsLeft int // operations until an injected reset; -1 = never
}

// stream derives the fault stream of the ordinal-th dial to addr.
func stream(seed int64, addr string, ordinal uint64) *mathrand.Rand {
	h := fnv.New64a()
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte(addr))
	binary.BigEndian.PutUint64(b[:], ordinal)
	h.Write(b[:])
	return mathrand.New(mathrand.NewPCG(h.Sum64(), ordinal))
}

// plan draws the fault plan of the next dial to addr from that dial's
// stream, and returns the stream for the connection's later operations.
func (f *FaultNetwork) plan(addr string) (connPlan, *mathrand.Rand) {
	f.mu.Lock()
	defer f.mu.Unlock()
	rng := stream(f.cfg.Seed, addr, f.dials[addr])
	f.dials[addr]++
	f.stats.Dials++
	p := connPlan{opsLeft: -1}
	if rng.Float64() < f.cfg.DropRate {
		p.drop = true
		f.stats.Drops++
		return p, rng
	}
	if f.cfg.DelayRate > 0 && f.cfg.MaxDelay > 0 && rng.Float64() < f.cfg.DelayRate {
		p.delay = time.Duration(1 + rng.Int64N(int64(f.cfg.MaxDelay)))
		f.stats.Delays++
	}
	if rng.Float64() < f.cfg.HandshakeFailRate {
		p.opsLeft = 0
		f.stats.HandshakeFails++
	} else if rng.Float64() < f.cfg.ResetRate {
		// Die a few records in: mid-handshake or mid-exchange.
		p.opsLeft = 2 + rng.IntN(12)
		f.stats.Resets++
	}
	return p, rng
}

func (f *FaultNetwork) countDelay() {
	f.mu.Lock()
	f.stats.Delays++
	f.mu.Unlock()
}

func (f *FaultNetwork) countPartitionWait() {
	f.mu.Lock()
	f.stats.PartitionWaits++
	f.mu.Unlock()
}

// DialContext connects with fault injection: partition blackholing (bounded
// by ctx), injected dial latency, dropped dials, and a per-connection fault
// plan for the returned conn.
func (f *FaultNetwork) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	p, rng := f.plan(addr)
	// A partitioned address blackholes the SYN: block until healed or the
	// context gives up.
	waited := false
	for f.partitioned(addr) {
		if !waited {
			waited = true
			f.countPartitionWait()
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("rpc: dialing %q (partitioned): %w", addr, ctx.Err())
		//lint:ignore vclockonly the fault injector emulates the physical network; injected waits are real waits
		case <-time.After(time.Millisecond):
		}
	}
	if p.delay > 0 {
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("rpc: dialing %q: %w", addr, ctx.Err())
		//lint:ignore vclockonly injected dial latency is a real-time delay by design
		case <-time.After(p.delay):
		}
	}
	if p.drop {
		return nil, fmt.Errorf("rpc: injected connection drop to %q: %w", addr, syscall.ECONNREFUSED)
	}
	inner, err := f.inner.DialContext(ctx, addr)
	if err != nil {
		return nil, err
	}
	return &faultConn{Conn: inner, f: f, addr: addr, rng: rng, opsLeft: p.opsLeft, closed: make(chan struct{})}, nil
}

// faultConn applies the connection's fault plan to every read and write.
type faultConn struct {
	net.Conn
	f    *FaultNetwork
	addr string

	mu        sync.Mutex
	rng       *mathrand.Rand // the dial's fault stream, for per-operation delays
	opsLeft   int
	readDL    time.Time
	writeDL   time.Time
	closed    chan struct{}
	closeOnce sync.Once
}

func (c *faultConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

func (c *faultConn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDL, c.writeDL = t, t
	c.mu.Unlock()
	return c.Conn.SetDeadline(t)
}

func (c *faultConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDL = t
	c.mu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

func (c *faultConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.writeDL = t
	c.mu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}

func (c *faultConn) deadline(read bool) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if read {
		return c.readDL
	}
	return c.writeDL
}

func (c *faultConn) Read(p []byte) (int, error) {
	if err := c.gate(true); err != nil {
		return 0, err
	}
	return c.Conn.Read(p)
}

func (c *faultConn) Write(p []byte) (int, error) {
	if err := c.gate(false); err != nil {
		return 0, err
	}
	return c.Conn.Write(p)
}

// opDelay draws the injected latency for one read/write from the
// connection's stream. c.mu must be held.
func (c *faultConn) opDelay() time.Duration {
	cfg := &c.f.cfg
	if cfg.DelayRate <= 0 || cfg.MaxDelay <= 0 || c.rng.Float64() >= cfg.DelayRate {
		return 0
	}
	return time.Duration(1 + c.rng.Int64N(int64(cfg.MaxDelay)))
}

// gate applies partition blocking, injected latency and the reset
// countdown before an operation touches the real connection.
func (c *faultConn) gate(read bool) error {
	waited := false
	for c.f.partitioned(c.addr) {
		if !waited {
			waited = true
			c.f.countPartitionWait()
		}
		// Honor the connection deadline while blackholed, like a kernel
		// timing out a read on a dead route.
		//lint:ignore vclockonly connection deadlines set via net.Conn SetDeadline are wall-clock by contract
		if dl := c.deadline(read); !dl.IsZero() && time.Now().After(dl) {
			return os.ErrDeadlineExceeded
		}
		select {
		case <-c.closed:
			return net.ErrClosed
		//lint:ignore vclockonly blackhole polling emulates a dead route in real time
		case <-time.After(time.Millisecond):
		}
	}
	c.mu.Lock()
	reset := false
	if c.opsLeft == 0 {
		reset = true
	} else if c.opsLeft > 0 {
		c.opsLeft--
		if c.opsLeft == 0 {
			reset = true
		}
	}
	var d time.Duration
	if !reset {
		d = c.opDelay()
	}
	c.mu.Unlock()
	if reset {
		c.Conn.Close()
		return fmt.Errorf("rpc: injected connection reset: %w", syscall.ECONNRESET)
	}
	if d > 0 {
		c.f.countDelay()
		select {
		case <-c.closed:
			return net.ErrClosed
		//lint:ignore vclockonly injected per-op latency is a real-time delay by design
		case <-time.After(d):
		}
	}
	return nil
}
