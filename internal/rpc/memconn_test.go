package rpc

import (
	"bytes"
	"context"
	"errors"
	"io"
	mathrand "math/rand"
	"net"
	"os"
	"testing"
	"time"

	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/secchan"
)

// within runs f on its own goroutine and returns its error, failing the
// test if f has not returned after d: a call the connection should have
// woken fails here instead of hanging the package.
func within(t *testing.T, d time.Duration, what string, f func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	//lint:ignore vclockonly the test bounds a real blocked call in real time
	case <-time.After(d):
		t.Fatalf("%s still blocked after %v", what, d)
		return nil
	}
}

// blockedFor lets a call started on another goroutine reach its wait.
func blockedFor() {
	//lint:ignore vclockonly the test waits in real time for a goroutine to block
	time.Sleep(20 * time.Millisecond)
}

// wantDeadline fails unless err is the deadline error net.Conn promises.
func wantDeadline(t *testing.T, what string, err error) {
	t.Helper()
	var timeout interface{ Timeout() bool }
	if !errors.Is(err, os.ErrDeadlineExceeded) || !errors.As(err, &timeout) || !timeout.Timeout() {
		t.Fatalf("%s: %v, want os.ErrDeadlineExceeded with Timeout() true", what, err)
	}
}

// TestMemConnContract holds the in-memory connection to the parts of
// net.Conn's contract the rpc layer relies on, each row on a fresh pair: a
// is the dialing end, b the accepted one.
func TestMemConnContract(t *testing.T) {
	const wait = 2 * time.Second
	//lint:ignore vclockonly net.Conn deadlines are wall-clock deadlines by contract
	past := func() time.Time { return time.Now().Add(-time.Second) }
	rows := []struct {
		name string
		run  func(t *testing.T, a, b net.Conn)
	}{
		{"bytes arrive in order across write and read sizes", func(t *testing.T, a, b net.Conn) {
			for seed := int64(1); seed <= 8; seed++ {
				rng, rrng := mathrand.New(mathrand.NewSource(seed)), mathrand.New(mathrand.NewSource(-seed))
				sent := make([]byte, 64<<10)
				rng.Read(sent)
				go func() {
					for rest := sent; len(rest) > 0; {
						n := min(len(rest), 1+rng.Intn(5000))
						if _, err := a.Write(rest[:n]); err != nil {
							t.Error(err)
							return
						}
						rest = rest[n:]
					}
				}()
				got := make([]byte, 0, len(sent))
				buf := make([]byte, 6000)
				for len(got) < len(sent) {
					n, err := b.Read(buf[:1+rrng.Intn(len(buf))])
					if err != nil {
						t.Fatalf("seed %d: read after %d bytes: %v", seed, len(got), err)
					}
					got = append(got, buf[:n]...)
				}
				if !bytes.Equal(got, sent) {
					t.Fatalf("seed %d: the bytes read differ from the bytes written", seed)
				}
			}
		}},
		{"io.EOF once the peer has closed and the buffer is drained", func(t *testing.T, a, b net.Conn) {
			a.Write([]byte("last words"))
			a.Close()
			got, err := io.ReadAll(b)
			if err != nil || string(got) != "last words" {
				t.Fatalf("read %q, %v after the peer closed; want its bytes, then io.EOF", got, err)
			}
		}},
		{"a write after either end closed fails", func(t *testing.T, a, b net.Conn) {
			b.Close()
			if _, err := a.Write([]byte("x")); err == nil {
				t.Fatal("a write to a closed peer succeeded")
			}
			a.Close()
			if _, err := a.Write([]byte("x")); err == nil {
				t.Fatal("a write on a closed end succeeded")
			}
			if err := a.Close(); err != nil {
				t.Fatalf("closing again: %v", err)
			}
		}},
		{"a past deadline fails blocked and later reads", func(t *testing.T, a, b net.Conn) {
			err := within(t, wait, "a read past its deadline", func() error {
				go func() { blockedFor(); a.SetDeadline(past()) }()
				_, err := a.Read(make([]byte, 1))
				return err
			})
			wantDeadline(t, "blocked read", err)
			b.Write([]byte("x"))
			_, err = a.Read(make([]byte, 1))
			wantDeadline(t, "later read", err)
		}},
		{"a past deadline fails blocked and later writes", func(t *testing.T, a, b net.Conn) {
			if _, err := a.Write(make([]byte, memWindow)); err != nil { // a full window: the next Write blocks
				t.Fatal(err)
			}
			err := within(t, wait, "a write past its deadline", func() error {
				go func() { blockedFor(); a.SetWriteDeadline(past()) }()
				_, err := a.Write([]byte("x"))
				return err
			})
			wantDeadline(t, "blocked write", err)
			io.ReadFull(b, make([]byte, memWindow))
			_, err = a.Write([]byte("x"))
			wantDeadline(t, "later write", err)
		}},
		{"a future read deadline wakes a blocked read when it passes", func(t *testing.T, a, b net.Conn) {
			//lint:ignore vclockonly net.Conn deadlines are wall-clock deadlines by contract
			a.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
			err := within(t, wait, "a read past a future deadline", func() error {
				_, err := a.Read(make([]byte, 1))
				return err
			})
			wantDeadline(t, "read", err)
		}},
		{"the zero deadline clears it", func(t *testing.T, a, b net.Conn) {
			a.SetDeadline(past())
			a.SetDeadline(time.Time{})
			if _, err := a.Write([]byte("out")); err != nil {
				t.Fatalf("write after the deadline was cleared: %v", err)
			}
			b.Write([]byte("in"))
			if _, err := io.ReadFull(a, make([]byte, 2)); err != nil {
				t.Fatalf("read after the deadline was cleared: %v", err)
			}
		}},
		{"Close from another goroutine wakes a blocked read", func(t *testing.T, a, b net.Conn) {
			err := within(t, wait, "a read on a closed end", func() error {
				go func() { blockedFor(); a.Close() }()
				_, err := a.Read(make([]byte, 1))
				return err
			})
			if err == nil {
				t.Fatal("a read on a closed end succeeded")
			}
		}},
		{"the peer's Close wakes a blocked read with io.EOF", func(t *testing.T, a, b net.Conn) {
			err := within(t, wait, "a read whose peer closed", func() error {
				go func() { blockedFor(); b.Close() }()
				_, err := a.Read(make([]byte, 1))
				return err
			})
			if err != io.EOF {
				t.Fatalf("read whose peer closed: %v, want io.EOF", err)
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			a, b := newMemLink("srv")
			defer a.Close()
			defer b.Close()
			row.run(t, a, b)
		})
	}
}

// TestMemConnRecordAllocFree: once the buffers have grown to a record, a
// secure-channel record round trip over MemNetwork allocates nothing; the
// direction buffers are reused, not appended afresh.
func TestMemConnRecordAllocFree(t *testing.T) {
	n := NewMemNetwork()
	l, err := n.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ci, si := cryptoutil.MustIdentity("cust"), cryptoutil.MustIdentity("server")
	go func() {
		raw, err := l.Accept()
		if err != nil {
			return
		}
		s, err := secchan.Server(raw, secchan.Config{Identity: si, Verify: verifyAny})
		if err != nil {
			raw.Close()
			return
		}
		defer s.Close()
		for {
			msg, err := s.ReadMsg()
			if err != nil || s.WriteMsg(msg) != nil {
				return
			}
		}
	}()
	raw, err := n.DialContext(context.Background(), "srv")
	if err != nil {
		t.Fatal(err)
	}
	c, err := secchan.Client(raw, secchan.Config{Identity: ci, Verify: verifyAny})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := make([]byte, 459) // the echo micro-benchmark's body
	roundTrip := func() {
		if err := c.WriteMsg(payload); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ReadMsg(); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip() // grows the record and direction buffers
	if n := testing.AllocsPerRun(200, roundTrip); n != 0 {
		t.Fatalf("a record round trip over MemNetwork allocates %.2f times, want 0", n)
	}
}
