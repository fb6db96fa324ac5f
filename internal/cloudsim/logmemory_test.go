package cloudsim

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"cloudmonatt/internal/obs"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/rpc"
)

// The tpm backend's event log grows by one entry per VM a server ever
// launched and is never pruned. These tests hold the testbed to what makes
// that affordable: startup evidence carries only the events its verifier has
// not replayed yet (driver.LogMemory), so a customer's launch, attestation
// and termination cost the same on a server's thousandth VM as on its tenth,
// and everything that loses a shard's memory costs one exchange from event 0
// and never a verdict.

// byteCountingNetwork counts the dials of an in-memory network and the
// writes and bytes written on both ends of every connection.
type byteCountingNetwork struct {
	inner  *rpc.MemNetwork
	dials  atomic.Int64
	writes atomic.Int64
	bytes  atomic.Int64
}

func (n *byteCountingNetwork) Inner() rpc.Network { return n.inner }

func (n *byteCountingNetwork) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	n.dials.Add(1)
	c, err := n.inner.DialContext(ctx, addr)
	if err != nil {
		return nil, err
	}
	return &byteCountingConn{Conn: c, n: n}, nil
}

func (n *byteCountingNetwork) Listen(addr string) (net.Listener, error) {
	l, err := n.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &byteCountingListener{Listener: l, n: n}, nil
}

type byteCountingListener struct {
	net.Listener
	n *byteCountingNetwork
}

func (l *byteCountingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &byteCountingConn{Conn: c, n: l.n}, nil
}

type byteCountingConn struct {
	net.Conn
	n *byteCountingNetwork
}

// Write counts before it writes: counted after, a record the peer has
// already read (and answered, and the caller has returned on) can still be
// uncounted, and a window closed then misses it and opens the next one
// with it.
func (c *byteCountingConn) Write(p []byte) (int, error) {
	c.n.writes.Add(1)
	c.n.bytes.Add(int64(len(p)))
	return c.Conn.Write(p)
}

// churnCycle is one customer lifetime, the repository benchmark's `churn`
// operation: connect, launch (stage 5 attests startup integrity), attest
// startup and runtime integrity, terminate, close.
func churnCycle(tb *Testbed, i int) error {
	cu, err := tb.NewCustomer(fmt.Sprintf("churn-%d", i))
	if err != nil {
		return err
	}
	defer cu.Close()
	req := basicLaunch()
	req.Workload = "file"
	res, err := cu.Launch(req)
	if err != nil {
		return err
	}
	if !res.OK {
		return fmt.Errorf("launch rejected: %s", res.Reason)
	}
	for _, p := range []properties.Property{properties.StartupIntegrity, properties.RuntimeIntegrity} {
		if v, err := cu.Attest(res.Vid, p); err != nil || !v.Healthy {
			return fmt.Errorf("attesting %s of %s: %v %v", p, res.Vid, v, err)
		}
	}
	return cu.Terminate(res.Vid)
}

// cycleCost is what a run of churn cycles cost on average.
type cycleCost struct{ wireBytes, allocBytes, allocs float64 }

func measureCycles(t *testing.T, tb *Testbed, counted *byteCountingNetwork, from, n int) cycleCost {
	t.Helper()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	w0 := counted.bytes.Load()
	for i := from; i < from+n; i++ {
		if err := churnCycle(tb, i); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
	}
	runtime.ReadMemStats(&m1)
	return cycleCost{
		wireBytes:  float64(counted.bytes.Load()-w0) / float64(n),
		allocBytes: float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n),
		allocs:     float64(m1.Mallocs-m0.Mallocs) / float64(n),
	}
}

// TestChurnCycleCostIsFlat runs a thousand customer lifetimes through a
// one-server testbed. The bytes a cycle puts on the wire (its two startup
// evidences are the largest messages of it), the bytes it allocates and its
// allocation count must read the same after a thousand cycles as after ten.
// Before evidence was incremental each cycle moved 108 more wire bytes,
// 3.9 KiB more allocated and 6 more allocations than the one before it.
//
// A window is 200 cycles: state that grows with every cycle (the ledger's
// index, the controller's records) grows by whole-slice and whole-map
// copies, up to ~600 KiB at a thousand cycles. A short window holds one
// such copy or none, which moves its bytes per cycle by a few per cent of a
// ~87 KiB cycle; a long one averages them out.
func TestChurnCycleCostIsFlat(t *testing.T) {
	counted := &byteCountingNetwork{inner: rpc.NewMemNetwork()}
	tb := newTB(t, Options{Seed: 22, Servers: 1, Network: counted})
	const window = 200
	measureCycles(t, tb, counted, 0, 10)
	early := measureCycles(t, tb, counted, 10, window)
	measureCycles(t, tb, counted, 10+window, 1000-10-window)
	late := measureCycles(t, tb, counted, 1000, window)
	t.Logf("after 10 cycles: %.0f wire bytes, %.0f bytes and %.0f allocations a cycle; after 1000: %.0f, %.0f and %.0f",
		early.wireBytes, early.allocBytes, early.allocs, late.wireBytes, late.allocBytes, late.allocs)
	for _, c := range []struct {
		what        string
		early, late float64
	}{
		{"bytes on the wire", early.wireBytes, late.wireBytes},
		{"bytes allocated", early.allocBytes, late.allocBytes},
		{"allocations", early.allocs, late.allocs},
	} {
		if c.late > 1.05*c.early || c.late < 0.95*c.early {
			t.Errorf("%s per cycle: %.0f after 10 cycles, %.0f after 1000: a cycle's cost depends on the server's history", c.what, c.early, c.late)
		}
	}
}

// BenchmarkChurnByCyclesServed is the probe for history dependence: b.N churn
// cycles on the benchmark's two-server testbed, reporting the median cycle
// time, the bytes and the allocations of the first and of the last 200, so
// that `-benchtime 2000x` reads cycles 0-200 against 1800-2000.
func BenchmarkChurnByCyclesServed(b *testing.B) {
	tb, err := New(Options{Seed: 1, Servers: 2})
	if err != nil {
		b.Fatal(err)
	}
	window := min(200, b.N)
	report := func(name string, from int) {
		times := make([]time.Duration, 0, window)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := from; i < from+window; i++ {
			t0 := time.Now()
			if err := churnCycle(tb, i); err != nil {
				b.Fatalf("cycle %d: %v", i, err)
			}
			times = append(times, time.Since(t0))
		}
		runtime.ReadMemStats(&m1)
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		b.ReportMetric(float64(times[len(times)/2].Microseconds())/1000, name+"-p50-ms")
		b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/float64(window)/1024, name+"-KiB/cycle")
		b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(window), name+"-allocs/cycle")
	}
	b.ResetTimer()
	report("first", 0)
	for i := window; i < b.N-window; i++ {
		if err := churnCycle(tb, i); err != nil {
			b.Fatalf("cycle %d: %v", i, err)
		}
	}
	if b.N >= 2*window {
		report("last", b.N-window)
	}
}

// fromZero sums, over every shard, the measurement exchanges that asked a
// server for its whole log, by why.
func fromZero(tb *Testbed) map[string]int64 {
	out := make(map[string]int64)
	for _, as := range tb.AttestServers {
		for _, cause := range []string{"no-memory", "entry-unknown", "replay-mismatch"} {
			out[cause] += as.Metrics().Counter("appraise/log-from-zero-" + cause).Value()
		}
	}
	return out
}

func total(m map[string]int64) (n int64) {
	for _, v := range m {
		n += v
	}
	return n
}

// TestLogMemoryFallbacksEndToEnd walks everything that costs a shard its
// memory of a server's log, or a VM's place in it: a joined and a drained
// shard, a restarted controller, a server registered anew under another AIK,
// a migration there and back. After each, every VM attests startup integrity
// healthy, having asked for a whole log at most once.
func TestLogMemoryFallbacksEndToEnd(t *testing.T) {
	tb := newTB(t, Options{Seed: 23, Servers: 2, Shards: 2})
	cu, err := tb.NewCustomer("alice")
	if err != nil {
		t.Fatal(err)
	}
	var vids []string
	for i := 0; i < 6; i++ {
		vids = append(vids, launch(t, cu, basicLaunch()).Vid)
	}
	// attestAll attests every VM twice and returns how many whole logs the
	// first and the second round asked for.
	attestAll := func(after string) (first, second int64) {
		t.Helper()
		counts := [3]int64{total(fromZero(tb))}
		for round := 1; round <= 2; round++ {
			for _, vid := range vids {
				before := total(fromZero(tb))
				v, err := cu.Attest(vid, properties.StartupIntegrity)
				if err != nil || !v.Healthy {
					t.Fatalf("after %s, round %d: %s: %v %v", after, round, vid, v, err)
				}
				if n := total(fromZero(tb)) - before; n > 1 {
					t.Fatalf("after %s, round %d: %s asked for %d whole logs", after, round, vid, n)
				}
			}
			counts[round] = total(fromZero(tb))
		}
		if from0 := fromZero(tb); from0["replay-mismatch"] != 0 {
			t.Fatalf("after %s: an honest log did not replay: %v", after, from0)
		}
		return counts[1] - counts[0], counts[2] - counts[1]
	}
	// Launch stage 5 taught each shard the two logs and its own VMs' places.
	if first, second := attestAll("launch"); first != 0 || second != 0 {
		t.Fatalf("after launch: %d then %d whole logs asked for, want none", first, second)
	}

	joined, _, err := tb.JoinShard()
	if err != nil {
		t.Fatal(err)
	}
	if first, second := attestAll("JoinShard"); second != 0 {
		t.Fatalf("after JoinShard: %d then %d whole logs asked for, want none the second time", first, second)
	}
	if _, err := tb.LeaveShard(joined); err != nil {
		t.Fatal(err)
	}
	if first, second := attestAll("LeaveShard"); second != 0 {
		t.Fatalf("after LeaveShard: %d then %d whole logs asked for, want none the second time", first, second)
	}

	if err := tb.RestartController(); err != nil {
		t.Fatal(err)
	}
	if first, second := attestAll("RestartController"); first != 0 || second != 0 {
		t.Fatalf("after RestartController: %d then %d whole logs asked for, want none: the shards lost nothing", first, second)
	}

	// A server registered under another AIK is another TPM: nothing
	// remembered of the old one may be held against it. (The bogus key is the
	// stand-in; the testbed's servers keep theirs.)
	for _, as := range tb.AttestServers {
		for _, rec := range as.Servers() {
			genuine := rec.AIK
			rec.AIK = make([]byte, len(genuine))
			as.RegisterServer(rec)
			rec.AIK = genuine
			as.RegisterServer(rec)
		}
	}
	// One whole log per shard and server teaches the shard the places of
	// all its VMs there.
	if first, second := attestAll("re-registration"); first == 0 || first > 4 || second != 0 {
		t.Fatalf("after re-registration: %d then %d whole logs asked for, want one to four and then none", first, second)
	}

	// There and back: the VM's entry is among the new events of either log.
	vid := vids[0]
	home, _ := tb.Ctrl.VMServer(vid)
	away, err := tb.Ctrl.MigrateVM(vid)
	if err != nil {
		t.Fatal(err)
	}
	if first, second := attestAll("migration"); first != 0 || second != 0 {
		t.Fatalf("after migrating %s to %s: %d then %d whole logs asked for, want none", vid, away, first, second)
	}
	if back, err := tb.Ctrl.MigrateVM(vid); err != nil || back != home {
		t.Fatalf("migrating %s back: on %s, %v", vid, back, err)
	}
	if first, second := attestAll("migration back"); first != 0 || second != 0 {
		t.Fatalf("after migrating %s back: %d then %d whole logs asked for, want none", vid, first, second)
	}
}

// TestAppraiseSpanShowsLogProgress checks what an operator reads of the
// incremental log: each startup appraisal's span says where it asked the log
// from and how many events came back, a fallback names its cause on the same
// span, and the shard counts events replayed.
func TestAppraiseSpanShowsLogProgress(t *testing.T) {
	tb := newTB(t, Options{Seed: 24, Servers: 1})
	cu, err := tb.NewCustomer("alice")
	if err != nil {
		t.Fatal(err)
	}
	// notes returns the annotations of every startup appraise span, oldest
	// first.
	notes := func() (out []map[string]string) {
		var spans []obs.Span
		for _, tr := range tb.Obs.Traces(obs.TraceFilter{}) {
			for _, sp := range tr.Spans {
				if sp.Name == "appraise" && sp.Prop == string(properties.StartupIntegrity) {
					spans = append(spans, sp)
				}
			}
		}
		sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
		for _, sp := range spans {
			m := make(map[string]string)
			for _, n := range sp.Notes {
				m[n.Key] = n.Value
			}
			out = append(out, m)
		}
		return out
	}
	launch(t, cu, basicLaunch())
	second := launch(t, cu, basicLaunch()).Vid
	if v, err := cu.Attest(second, properties.StartupIntegrity); err != nil || !v.Healthy {
		t.Fatalf("%v %v", v, err)
	}
	want := []map[string]string{
		{"log-from": "0", "log-events": "5"}, // the boot chain and the first VM
		{"log-from": "5", "log-events": "1"},
		{"log-from": "6", "log-events": "0"},
	}
	got := notes()
	if len(got) != len(want) {
		t.Fatalf("%d startup appraise spans, want %d: %v", len(got), len(want), got)
	}
	for i, w := range want {
		for k, v := range w {
			if got[i][k] != v {
				t.Fatalf("appraise span %d: %s=%q, want %q (%v)", i, k, got[i][k], v, got[i])
			}
		}
		if _, refetched := got[i]["log-refetch"]; refetched {
			t.Fatalf("appraise span %d fell back: %v", i, got[i])
		}
	}
	if n := tb.Attest.Metrics().Counter("appraise/log-events-replayed").Value(); n != 6 {
		t.Fatalf("%d events replayed, want 6", n)
	}
}
