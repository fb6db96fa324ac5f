package rpc

import (
	"sort"
	"sync"
	"time"

	"cloudmonatt/internal/binenc"
	"cloudmonatt/internal/ledger"
	"cloudmonatt/internal/metrics"
	"cloudmonatt/internal/obs"
	"cloudmonatt/internal/secchan"
)

// PeerSetConfig configures the outbound side of one entity.
type PeerSetConfig struct {
	// Entity prefixes the fault-tolerance counters:
	// <Entity>/rpc-retries, /rpc-breaker-transitions, /rpc-breaker-opens.
	Entity  string
	Network Network
	Secchan secchan.Config
	// Policy is every client's (ClientConfig.Policy); it bounds every call
	// end to end (Policy.Budget).
	Policy  Policy
	Metrics *metrics.Registry
	// Ledger, when set, receives one rpc-fault entry per retry and breaker
	// transition, stamped with Now (the entity's virtual clock).
	Ledger *ledger.Ledger
	Now    func() time.Duration
}

// PeerSet is every outbound channel one entity holds: a peer → address
// registry, one lazily built ReconnectClient per peer, and the counting
// and evidence recording of their retries and breaker transitions. It
// hands out *ReconnectClient, so each call site picks the call form that
// makes its retries safe (CallCtx, CallFresh or CallIdem), the surface the
// noncefresh analyzer polices; every peer's client retries alike.
type PeerSet struct {
	cfg PeerSetConfig

	mu      sync.Mutex
	addrs   map[string]string
	clients map[string]*ReconnectClient
}

// NewPeerSet creates an empty peer set.
func NewPeerSet(cfg PeerSetConfig) *PeerSet {
	return &PeerSet{cfg: cfg, addrs: make(map[string]string), clients: make(map[string]*ReconnectClient)}
}

// Register records (or replaces) a peer's address. A client built for the
// previous address is dropped, so the next call dials the new one.
func (ps *PeerSet) Register(peer, addr string) {
	ps.mu.Lock()
	ps.addrs[peer] = addr
	delete(ps.clients, peer)
	ps.mu.Unlock()
}

// Client returns the fault-tolerant client for a registered peer, or false
// for an unknown one. Nothing is dialed until the client's first call.
func (ps *PeerSet) Client(peer string) (*ReconnectClient, bool) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if rc, ok := ps.clients[peer]; ok {
		return rc, true
	}
	addr, ok := ps.addrs[peer]
	if !ok {
		return nil, false
	}
	rc := NewReconnectClient(ClientConfig{
		Network: ps.cfg.Network,
		Addr:    addr,
		Peer:    peer,
		Secchan: ps.cfg.Secchan,
		Policy:  ps.cfg.Policy,
		OnEvent: ps.onEvent,
	})
	ps.clients[peer] = rc
	return rc, true
}

// Health reports the breaker state of every channel built so far, sorted
// by peer, for the operator /healthz endpoint.
func (ps *PeerSet) Health() []obs.PeerHealth {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	out := make([]obs.PeerHealth, 0, len(ps.clients))
	for peer, rc := range ps.clients {
		out = append(out, obs.PeerHealth{Peer: peer, Breaker: rc.BreakerState().String()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

// FaultRecord is the payload of every ledger.KindRPCFault entry, whichever
// entity's channel observed the event. Retries fill Method/Attempt/Err,
// breaker transitions From/To.
type FaultRecord struct {
	Event   string // "retry" | "breaker"
	Peer    string
	Method  string
	Attempt int
	Err     string
	From    string
	To      string
}

// AppendWire appends the record's binenc encoding to b.
func (r FaultRecord) AppendWire(b []byte) []byte {
	b = binenc.AppendHeader(b, ledger.TagFaultRecord)
	b = binenc.AppendString(b, r.Event)
	b = binenc.AppendString(b, r.Peer)
	b = binenc.AppendString(b, r.Method)
	b = binenc.AppendUint64(b, uint64(r.Attempt))
	b = binenc.AppendString(b, r.Err)
	b = binenc.AppendString(b, r.From)
	return binenc.AppendString(b, r.To)
}

// DecodeWire strictly decodes the record from its binenc encoding.
func (r *FaultRecord) DecodeWire(data []byte) error {
	rd := binenc.NewReader(data)
	rd.Header(ledger.TagFaultRecord)
	*r = FaultRecord{}
	r.Event = rd.String()
	r.Peer = rd.String()
	r.Method = rd.String()
	r.Attempt = int(int64(rd.Uint64()))
	r.Err = rd.String()
	r.From = rd.String()
	r.To = rd.String()
	return ledger.Finish(&rd, "FaultRecord")
}

// onEvent counts a retry or breaker transition and records it as evidence.
// It runs on the calling client's goroutine, possibly concurrently.
func (ps *PeerSet) onEvent(ev Event) {
	fault := FaultRecord{Event: string(ev.Kind), Peer: ev.Peer}
	switch ev.Kind {
	case EventRetry:
		ps.cfg.Metrics.Counter(ps.cfg.Entity + "/rpc-retries").Inc()
		fault.Method, fault.Attempt = ev.Method, ev.Attempt
		if ev.Err != nil {
			fault.Err = ev.Err.Error()
		}
	case EventBreaker:
		ps.cfg.Metrics.Counter(ps.cfg.Entity + "/rpc-breaker-transitions").Inc()
		if ev.To == BreakerOpen {
			ps.cfg.Metrics.Counter(ps.cfg.Entity + "/rpc-breaker-opens").Inc()
		}
		fault.From, fault.To = ev.From.String(), ev.To.String()
	}
	if ps.cfg.Ledger != nil { // Now is set only with a ledger
		ledger.Record(ps.cfg.Ledger, ledger.Entry{At: ps.cfg.Now(), Kind: ledger.KindRPCFault}, fault)
	}
}
