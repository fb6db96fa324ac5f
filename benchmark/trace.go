package main

import (
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"cloudmonatt/internal/rpc"
)

// Benchmark-side tracing: spans are recorded around the calls this
// package makes into the program's public functions — never inside the
// program — kept in memory and written out when the run ends. A nil
// *recorder (every untraced run) makes start/child/end no-ops, so the
// end-to-end figures are measured with tracing off.

// spanRec is one recorded span. Parent is the index of the causing span
// (-1 for an op's root); spans of one operation share Op.
type spanRec struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// recorder collects spans. It is driven by the single driver goroutine,
// like the workload itself, so it needs no lock.
type recorder struct {
	t0    time.Time
	spans []spanRec
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// span is a handle on an open spanRec.
type span struct {
	r  *recorder
	id int
}

func (r *recorder) open(name string, op, parent int) *span {
	if r == nil {
		return nil
	}
	id := len(r.spans)
	r.spans = append(r.spans, spanRec{ID: id, Parent: parent, Op: op, Name: name, StartNS: int64(time.Since(r.t0))})
	return &span{r: r, id: id}
}

// start opens the root span of operation op.
func (r *recorder) start(name string, op int) *span { return r.open(name, op, -1) }

// child opens a span caused by s.
func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	return s.r.open(name, s.r.spans[s.id].Op, s.id)
}

func (s *span) end() {
	if s == nil {
		return
	}
	s.r.spans[s.id].EndNS = int64(time.Since(s.r.t0))
}

// durations returns the duration of every closed span called name.
func (r *recorder) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name && s.EndNS > 0 {
			out = append(out, time.Duration(s.EndNS-s.StartNS))
		}
	}
	return out
}

// write stores the spans as JSON under dir, which exists.
func (r *recorder) write(dir, workload string) (string, error) {
	data, err := json.Marshal(r.spans)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}

// countingNetwork wraps an rpc.MemNetwork and counts dials, connection writes
// and bytes written on both ends of every connection, so transport work
// per operation is measured from outside internal/rpc. Only the traced run
// uses it; untraced testbeds run on the default network.
type countingNetwork struct {
	inner  *rpc.MemNetwork
	dials  atomic.Int64
	writes atomic.Int64
	bytes  atomic.Int64
}

func newCountingNetwork() *countingNetwork {
	return &countingNetwork{inner: rpc.NewMemNetwork()}
}

// Inner lets the testbed see the in-memory network underneath and keep its
// symbolic addressing.
func (n *countingNetwork) Inner() rpc.Network { return n.inner }

func (n *countingNetwork) Dial(addr string) (net.Conn, error) {
	return n.DialContext(context.Background(), addr)
}

func (n *countingNetwork) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	c, err := n.inner.DialContext(ctx, addr)
	if err != nil {
		return nil, err
	}
	n.dials.Add(1)
	return &countingConn{Conn: c, n: n}, nil
}

func (n *countingNetwork) Listen(addr string) (net.Listener, error) {
	l, err := n.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &countingListener{Listener: l, n: n}, nil
}

type countingListener struct {
	net.Listener
	n *countingNetwork
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: l.n}, nil
}

type countingConn struct {
	net.Conn
	n *countingNetwork
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.writes.Add(1)
	c.n.bytes.Add(int64(n))
	return n, err
}

// netCounts is a snapshot of a countingNetwork.
type netCounts struct{ dials, writes, bytes int64 }

func (n *countingNetwork) snapshot() netCounts {
	return netCounts{n.dials.Load(), n.writes.Load(), n.bytes.Load()}
}
