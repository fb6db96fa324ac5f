package customer

import (
	"crypto/ed25519"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"cloudmonatt/internal/controller"
	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/obs"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/rpc"
	"cloudmonatt/internal/secchan"
	"cloudmonatt/internal/wire"
)

const (
	vid  = "vm-0001"
	prop = properties.RuntimeIntegrity
)

var healthy = properties.Verdict{Property: prop, Healthy: true, Reason: "ok"}

// stub is a scripted Cloud Controller on an in-memory network: reply
// decides what each attestation or drain request is answered with, and the
// N1 and Trace of every attestation request are recorded in arrival order.
type stub struct {
	id  *cryptoutil.Identity
	net *rpc.MemNetwork

	mu     sync.Mutex
	conns  []net.Conn // server ends, in dial order
	n1s    []cryptoutil.Nonce
	traces []string
	lists  int // list_vms requests seen
	reply  func(s *stub, attempt int, n1 cryptoutil.Nonce) (any, error)
}

func newStub(t *testing.T, reply func(s *stub, attempt int, n1 cryptoutil.Nonce) (any, error)) *stub {
	t.Helper()
	s := &stub{id: cryptoutil.MustIdentity(controllerName), net: rpc.NewMemNetwork(), reply: reply}
	s.net.Intercept = func(_ string, client, server net.Conn) (net.Conn, net.Conn) {
		s.mu.Lock()
		s.conns = append(s.conns, server)
		s.mu.Unlock()
		return client, server
	}
	l, err := s.net.Listen("ctrl")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	anyPeer := func(string, ed25519.PublicKey) error { return nil }
	go rpc.Serve(l, secchan.Config{Identity: s.id, Verify: anyPeer}, s.handle)
	return s
}

func (s *stub) handle(_ rpc.Peer, method string, body []byte) ([]byte, error) {
	var n1 cryptoutil.Nonce
	switch method {
	case controller.MethodRuntimeAttestCurrent, controller.MethodStartupAttestCurrent:
		var req wire.AttestRequest
		if err := rpc.Decode(body, &req); err != nil {
			return nil, err
		}
		n1 = req.N1
		s.mu.Lock()
		s.n1s = append(s.n1s, req.N1)
		s.traces = append(s.traces, req.Trace)
		s.mu.Unlock()
	case controller.MethodFetchPeriodic, controller.MethodStopAttestPeriodic:
		var req wire.StopPeriodicRequest
		if err := rpc.Decode(body, &req); err != nil {
			return nil, err
		}
		n1 = req.N1
	case controller.MethodListVMs:
		// The first list_vms is read and its connection reset unanswered.
		s.mu.Lock()
		s.lists++
		first := s.lists == 1
		s.mu.Unlock()
		if first {
			s.dropConn()
			return nil, errors.New("never delivered")
		}
		return rpc.Encode(controller.VMSummaryList{{Vid: vid}})
	default:
		return nil, nil
	}
	s.mu.Lock()
	attempt := len(s.n1s)
	s.mu.Unlock()
	resp, err := s.reply(s, attempt, n1)
	if err != nil {
		return nil, err
	}
	return rpc.Encode(resp)
}

// dropConn resets the connection the current request arrived on: the
// request has been read, the reply will never be written.
func (s *stub) dropConn() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.conns[len(s.conns)-1].Close()
}

func (s *stub) connect(t *testing.T) *Customer {
	t.Helper()
	cu, err := Connect(Config{
		Identity:      cryptoutil.MustIdentity("alice"),
		Network:       s.net,
		Addr:          "ctrl",
		ControllerKey: s.id.Public(),
		CallTimeout:   2 * time.Second,
		Retry:         rpc.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cu.Close() })
	return cu
}

// TestAttestRejectsUnverifiableReplies: whatever the controller (or
// whoever sits in its place) answers, a report that is not signed by VKc
// over this VM, this property and this attempt's N1 never becomes a
// verdict.
func TestAttestRejectsUnverifiableReplies(t *testing.T) {
	mallory := cryptoutil.MustIdentity("mallory")
	cases := []struct {
		name  string
		reply func(s *stub, attempt int, n1 cryptoutil.Nonce) (any, error)
		want  string
	}{
		{"signed by another key", func(s *stub, _ int, n1 cryptoutil.Nonce) (any, error) {
			return wire.BuildCustomerReport(mallory, vid, prop, healthy, n1), nil
		}, "signature invalid"},
		{"another VM id", func(s *stub, _ int, n1 cryptoutil.Nonce) (any, error) {
			return wire.BuildCustomerReport(s.id, "vm-0002", prop, healthy, n1), nil
		}, "does not match the request"},
		{"another property", func(s *stub, _ int, n1 cryptoutil.Nonce) (any, error) {
			return wire.BuildCustomerReport(s.id, vid, properties.CPUAvailability, healthy, n1), nil
		}, "does not match the request"},
		{"previous attempt's N1 after a forced retry", func(s *stub, attempt int, n1 cryptoutil.Nonce) (any, error) {
			if attempt == 1 {
				s.dropConn()
				return nil, errors.New("never delivered")
			}
			return wire.BuildCustomerReport(s.id, vid, prop, healthy, s.n1s[0]), nil
		}, "nonce mismatch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cu := newStub(t, tc.reply).connect(t)
			v, err := cu.Attest(vid, prop)
			if err == nil || !strings.Contains(err.Error(), "customer: rejecting report") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Attest = (%+v, %v), want a rejection mentioning %q", v, err, tc.want)
			}
			if v.Healthy {
				t.Fatal("a rejected report leaked its verdict")
			}
		})
	}
}

// TestAttestVerifiesAgainstTheAnsweringAttemptsNonce: the first attempt's
// connection is reset after the controller read the request; the second
// attempt is answered. Both attempts carried distinct N1s and the trace IDs
// minted from them, and the report is accepted because it answers the
// second one.
func TestAttestVerifiesAgainstTheAnsweringAttemptsNonce(t *testing.T) {
	s := newStub(t, func(s *stub, attempt int, n1 cryptoutil.Nonce) (any, error) {
		if attempt == 1 {
			s.dropConn()
			return nil, errors.New("never delivered")
		}
		return wire.BuildCustomerReport(s.id, vid, prop, healthy, n1), nil
	})
	rep, err := s.connect(t).AttestReport(vid, prop)
	if err != nil {
		t.Fatalf("AttestReport after a retried attempt: %v", err)
	}
	if len(s.n1s) != 2 || s.n1s[0] == s.n1s[1] {
		t.Fatalf("want two attempts with distinct N1s, got %d: %x", len(s.n1s), s.n1s)
	}
	if rep.N1 != s.n1s[1] {
		t.Fatal("accepted report does not answer the second attempt's N1")
	}
	for i, n1 := range s.n1s {
		if want := obs.MintTrace(n1[:]); s.traces[i] != want {
			t.Fatalf("attempt %d carried trace %q, want %q minted from its N1", i+1, s.traces[i], want)
		}
	}
	if TraceOf(rep) != s.traces[1] {
		t.Fatalf("TraceOf = %q, want the answering attempt's trace %q", TraceOf(rep), s.traces[1])
	}
}

// TestAttestSurfacesStaleReports: a degraded report is genuine (signed,
// bound to N1) and accepted, with its staleness visible to the caller.
func TestAttestSurfacesStaleReports(t *testing.T) {
	s := newStub(t, func(s *stub, _ int, n1 cryptoutil.Nonce) (any, error) {
		return wire.BuildStaleCustomerReport(s.id, vid, prop, healthy, n1, 42*time.Second), nil
	})
	rep, err := s.connect(t).AttestReport(vid, prop)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Stale || rep.Age != 42*time.Second || !rep.Verdict.Healthy {
		t.Fatalf("stale report surfaced as %+v", rep)
	}
}

// TestDrainRejectsABatchWithOneBadReport: a periodic drain is all or
// nothing, and its one signature covers every verdict in order. A drain
// that lost a verdict, had its verdicts reordered or one swapped for a
// verdict of another drain, answers another N1, or is signed by another key
// is rejected by fetch and by stop, and none of its verdicts is returned.
func TestDrainRejectsABatchWithOneBadReport(t *testing.T) {
	mallory := cryptoutil.MustIdentity("mallory")
	first := properties.Verdict{Property: prop, Healthy: true, Reason: "first"}
	second := properties.Verdict{Property: prop, Class: properties.FailureRuntime, Reason: "second: unexpected task"}
	rows := []struct {
		name   string
		tamper func(s *stub, n1 cryptoutil.Nonce) *wire.CustomerBatch
		want   string
	}{
		{"none", func(s *stub, n1 cryptoutil.Nonce) *wire.CustomerBatch {
			return wire.BuildCustomerBatch(s.id, vid, prop, n1, []properties.Verdict{first, second})
		}, ""},
		{"a dropped verdict", func(s *stub, n1 cryptoutil.Nonce) *wire.CustomerBatch {
			b := wire.BuildCustomerBatch(s.id, vid, prop, n1, []properties.Verdict{first, second})
			b.Verdicts = b.Verdicts[:1]
			return b
		}, "signature invalid"},
		{"reordered verdicts", func(s *stub, n1 cryptoutil.Nonce) *wire.CustomerBatch {
			b := wire.BuildCustomerBatch(s.id, vid, prop, n1, []properties.Verdict{first, second})
			b.Verdicts[0], b.Verdicts[1] = b.Verdicts[1], b.Verdicts[0]
			return b
		}, "signature invalid"},
		{"a verdict taken from another drain", func(s *stub, n1 cryptoutil.Nonce) *wire.CustomerBatch {
			other := wire.BuildCustomerBatch(s.id, vid, prop, cryptoutil.MustNonce(), []properties.Verdict{first})
			b := wire.BuildCustomerBatch(s.id, vid, prop, n1, []properties.Verdict{first, second})
			b.Verdicts[1] = other.Verdicts[0]
			return b
		}, "signature invalid"},
		{"another N1", func(s *stub, _ cryptoutil.Nonce) *wire.CustomerBatch {
			return wire.BuildCustomerBatch(s.id, vid, prop, cryptoutil.MustNonce(), []properties.Verdict{first, second})
		}, "nonce mismatch"},
		{"another signer", func(_ *stub, n1 cryptoutil.Nonce) *wire.CustomerBatch {
			return wire.BuildCustomerBatch(mallory, vid, prop, n1, []properties.Verdict{first, second})
		}, "signature invalid"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cu := newStub(t, func(s *stub, _ int, n1 cryptoutil.Nonce) (any, error) {
				return row.tamper(s, n1), nil
			}).connect(t)
			for name, drain := range map[string]func(string, properties.Property) ([]properties.Verdict, error){
				"fetch": cu.FetchPeriodic, "stop": cu.StopPeriodic,
			} {
				vs, err := drain(vid, prop)
				if row.want == "" {
					if err != nil || len(vs) != 2 || vs[0].Reason != first.Reason || vs[1].Reason != second.Reason {
						t.Fatalf("%s of a genuine drain = (%v, %v), want both verdicts in order", name, vs, err)
					}
					continue
				}
				if err == nil || !strings.Contains(err.Error(), "rejecting periodic batch") || !strings.Contains(err.Error(), row.want) || vs != nil {
					t.Fatalf("%s = (%v, %v), want a rejection mentioning %q", name, vs, err, row.want)
				}
			}
		})
	}
}

// TestReadOnlyQueriesAreReissued: list_vms, list_events and vm_status are
// marked idempotent, so a connection reset after the request was read is
// retried instead of surfacing; nothing that mutates or carries a nonce is.
func TestReadOnlyQueriesAreReissued(t *testing.T) {
	s := newStub(t, nil)
	vms, err := s.connect(t).ListVMs()
	if err != nil || len(vms) != 1 || vms[0].Vid != vid {
		t.Fatalf("ListVMs across a reset connection = (%+v, %v)", vms, err)
	}
	if s.lists != 2 {
		t.Fatalf("list_vms reached the controller %d times, want 2 (reset, then answered)", s.lists)
	}
	for _, m := range []string{controller.MethodListEvents, controller.MethodVMStatus} {
		if !readOnly(m) {
			t.Errorf("%s is a read-only query but not marked idempotent", m)
		}
	}
	for _, m := range []string{controller.MethodLaunchVM, controller.MethodTerminateVM,
		controller.MethodRuntimeAttestCurrent, controller.MethodRuntimeAttestPeriodic, controller.MethodFetchPeriodic} {
		if readOnly(m) {
			t.Errorf("%s mutates or carries a nonce; it must not be blindly re-issued", m)
		}
	}
}

// TestConnectPinsTheControllerKey: the channel accepts exactly the peer
// the bootstrap names.
func TestConnectPinsTheControllerKey(t *testing.T) {
	s := newStub(t, nil)
	_, err := Connect(Config{
		Identity:      cryptoutil.MustIdentity("alice"),
		Network:       s.net,
		Addr:          "ctrl",
		ControllerKey: cryptoutil.MustIdentity("someone-else").Public(),
		Retry:         rpc.RetryPolicy{MaxAttempts: 1},
	})
	if err == nil || !strings.Contains(err.Error(), "controller identity mismatch") {
		t.Fatalf("Connect to a controller with an unexpected key: %v", err)
	}
}
