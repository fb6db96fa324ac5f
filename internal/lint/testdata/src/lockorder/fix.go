// Package lockorderfix exercises the lockorder analyzer: no lock held
// across a blocking operation (op-serializer locks exempt) and the
// documented lock pairs acquired in order.
package lockorderfix

import (
	"sync"
	"time"

	"cloudmonatt/internal/lockorderdep"
	"cloudmonatt/internal/rpc"
	"cloudmonatt/internal/vclock"
)

// Testbed reuses the taxonomy's documented lock names: opMu is an
// op-serializer, and the documented order is opMu before mu.
type Testbed struct {
	opMu sync.Mutex
	mu   sync.Mutex
	ch   chan int
	n    int
}

func (t *Testbed) recvHeld() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return <-t.ch // want `channel receive while Testbed.mu is held`
}

func (t *Testbed) rpcHeld(c *rpc.ReconnectClient) error {
	t.mu.Lock()
	err := c.Call("ping", nil, nil) // want `rpc call while Testbed.mu is held`
	t.mu.Unlock()
	return err
}

func (t *Testbed) serialized() {
	t.opMu.Lock()
	t.ch <- 1
	t.opMu.Unlock()
}

func (t *Testbed) releasedFirst(c *rpc.ReconnectClient) error {
	t.mu.Lock()
	n := t.n
	t.mu.Unlock()
	_ = n
	return c.Call("ping", nil, nil)
}

func (t *Testbed) inverted() {
	t.mu.Lock()
	t.opMu.Lock() // want `Testbed.opMu acquired while Testbed.mu is held; the documented order is Testbed.opMu before Testbed.mu`
	t.opMu.Unlock()
	t.mu.Unlock()
}

func (t *Testbed) spawned() {
	t.mu.Lock()
	go func() {
		<-t.ch
	}()
	t.mu.Unlock()
}

func (t *Testbed) certifyHeld(ca lockorderdep.Certifier) {
	t.mu.Lock()
	_, _ = ca.Certify(nil) // want `contractually blocking \(Certify\) in Certify while Testbed.mu is held`
	t.mu.Unlock()
}

func (t *Testbed) waived() {
	t.mu.Lock()
	//lint:ignore lockorder fixture: the receive is bounded by a buffered channel drained elsewhere
	<-t.ch
	t.mu.Unlock()
}

// Server reuses the cloud server's lock name: mu covers the hypervisor on
// the server's own kernel, and the clock takes it to run that kernel.
type Server struct {
	mu    sync.Mutex
	clock *vclock.Clock
}

func (s *Server) advanceHeld() {
	s.mu.Lock()
	s.clock.Advance(time.Second) // want `clock advance while Server.mu is held`
	s.mu.Unlock()
}

// windowed is a measurement's shape: arm, release, advance, re-take, collect.
func (s *Server) windowed() {
	s.mu.Lock()
	s.mu.Unlock()
	s.clock.Advance(time.Second)
	s.mu.Lock()
	s.mu.Unlock()
}
