package rpc

import (
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// memWindow is how many unread bytes one direction of an in-memory
// connection holds before a Write blocks: one record of secchan's largest
// size (its maxFrame, 4 MiB) and the record's 4-byte length. A writer of
// records never waits for its reader to take the one before, as on a socket
// whose buffer holds a record, and a peer that stops reading pins at most a
// window and one Write.
const memWindow = 4<<20 + 4

// memBufs recycles the direction buffers of closed connections, so a new
// connection's records land in a buffer already grown to a record.
var memBufs = sync.Pool{New: func() any { return new([]byte) }}

// memLink is an in-memory connection that behaves like TCP, not net.Pipe:
// each direction is a byte buffer, and a Write appends to it and returns,
// waking the reader only if one waits, so a record crosses a hop without
// the writer parking until its peer has copied it.
type memLink struct {
	mu   sync.Mutex
	addr memAddr
	dirs [2]memDir  // dirs[i] carries what ends[i] writes
	ends [2]memConn // ends[0] dials, ends[1] is accepted
}

// memDir is one direction of a memLink.
type memDir struct {
	buf []byte // buf[off:] is unread; once drained it is reused from the start
	off int
	box *[]byte // carries buf to and from memBufs
	// wake is broadcast when bytes arrive or are read, when either end
	// closes and when a deadline moves or passes; waiters recheck.
	wake sync.Cond
}

// memConn is one end of a memLink. Its fields are guarded by link.mu.
type memConn struct {
	link    *memLink
	in, out *memDir
	peer    *memConn
	closed  bool
	rd, wd  time.Time   // read and write deadlines
	timer   *time.Timer // wakes blocked calls when the earlier deadline passes
}

// newMemLink returns the dialing and the accepted end of a new in-memory
// connection to addr.
func newMemLink(addr string) (client, server net.Conn) {
	l := &memLink{addr: memAddr(addr)}
	for i := range l.dirs {
		d := &l.dirs[i]
		d.wake.L = &l.mu
		d.box = memBufs.Get().(*[]byte)
		d.buf = (*d.box)[:0]
	}
	c, s := &l.ends[0], &l.ends[1]
	*c = memConn{link: l, in: &l.dirs[1], out: &l.dirs[0], peer: s}
	*s = memConn{link: l, in: &l.dirs[0], out: &l.dirs[1], peer: c}
	return c, s
}

// Read returns what is buffered, blocking while nothing is, and io.EOF once
// the peer has closed and the buffer is drained.
func (c *memConn) Read(p []byte) (int, error) {
	c.link.mu.Lock()
	defer c.link.mu.Unlock()
	for d := c.in; ; d.wake.Wait() {
		switch {
		case c.closed:
			return 0, io.ErrClosedPipe
		case expired(c.rd):
			return 0, os.ErrDeadlineExceeded
		case d.off < len(d.buf):
			n := copy(p, d.buf[d.off:])
			if d.off += n; d.off == len(d.buf) {
				d.buf, d.off = d.buf[:0], 0
			}
			d.wake.Broadcast() // a writer may wait for room
			return n, nil
		case c.peer.closed:
			return 0, io.EOF
		}
	}
}

// Write appends p whole to the peer's buffer, blocking only while that
// already holds a window.
func (c *memConn) Write(p []byte) (int, error) {
	c.link.mu.Lock()
	defer c.link.mu.Unlock()
	for d := c.out; ; d.wake.Wait() {
		switch {
		case c.closed || c.peer.closed:
			return 0, io.ErrClosedPipe
		case expired(c.wd):
			return 0, os.ErrDeadlineExceeded
		case len(d.buf)-d.off < memWindow:
			if d.off > 0 && len(d.buf)+len(p) > cap(d.buf) {
				d.buf, d.off = d.buf[:copy(d.buf, d.buf[d.off:])], 0
			}
			d.buf = append(d.buf, p...)
			d.wake.Broadcast()
			return len(p), nil
		}
	}
}

// Close ends both directions for both ends: this end's calls fail, and the
// peer reads what was sent before, then io.EOF. Closing again does nothing.
func (c *memConn) Close() error {
	c.link.mu.Lock()
	defer c.link.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	// Nobody reads this end's direction now, and the peer's writes fail.
	if cap(c.in.buf) <= 64<<10 { // a rare large buffer is not kept
		*c.in.box = c.in.buf[:0]
		memBufs.Put(c.in.box)
	}
	c.in.buf, c.in.off, c.in.box = nil, 0, nil
	if c.timer != nil {
		c.timer.Stop()
	}
	c.wake()
	return nil
}

// LocalAddr and RemoteAddr both name the address that was dialed.
func (c *memConn) LocalAddr() net.Addr  { return c.link.addr }
func (c *memConn) RemoteAddr() net.Addr { return c.link.addr }

// The deadlines follow net.Conn: a past one fails blocked and later calls
// with os.ErrDeadlineExceeded, a future one does once it passes, and the
// zero time clears it.
func (c *memConn) SetDeadline(t time.Time) error      { return c.setDeadline(t, true, true) }
func (c *memConn) SetReadDeadline(t time.Time) error  { return c.setDeadline(t, true, false) }
func (c *memConn) SetWriteDeadline(t time.Time) error { return c.setDeadline(t, false, true) }

func (c *memConn) setDeadline(t time.Time, read, write bool) error {
	c.link.mu.Lock()
	defer c.link.mu.Unlock()
	if c.closed {
		return io.ErrClosedPipe
	}
	if read {
		c.rd = t
	}
	if write {
		c.wd = t
	}
	c.arm()
	c.wake()
	return nil
}

// arm sets the timer for the earlier deadline still ahead, if any.
func (c *memConn) arm() {
	//lint:ignore vclockonly net.Conn deadlines are wall-clock deadlines by contract
	now := time.Now()
	next := c.rd
	if !next.After(now) || c.wd.After(now) && c.wd.Before(next) {
		next = c.wd
	}
	if !next.After(now) {
		if c.timer != nil {
			c.timer.Stop()
		}
	} else if c.timer == nil {
		//lint:ignore vclockonly a passing net.Conn deadline is a wall-clock event by contract
		c.timer = time.AfterFunc(next.Sub(now), c.expire)
	} else {
		c.timer.Reset(next.Sub(now))
	}
}

// expire runs when a deadline passes.
func (c *memConn) expire() {
	c.link.mu.Lock()
	defer c.link.mu.Unlock()
	if !c.closed {
		c.arm()
		c.wake()
	}
}

// wake rouses every call blocked on either direction.
func (c *memConn) wake() {
	c.in.wake.Broadcast()
	c.out.wake.Broadcast()
}

// expired reports whether deadline t is set and has passed.
func expired(t time.Time) bool {
	//lint:ignore vclockonly net.Conn deadlines are wall-clock deadlines by contract
	return !t.IsZero() && !time.Now().Before(t)
}
