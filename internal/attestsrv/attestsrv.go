// Package attestsrv implements the CloudMonatt Attestation Server (paper
// §3.2.3): the attestation requester and appraiser. It maps requested
// security properties to measurement requests, collects signed evidence
// from cloud servers over secure channels, validates the quote chain,
// interprets measurements into health verdicts (Property Interpretation
// Module), signs attestation reports (Property Certification Module), and
// runs the periodic-attestation engine.
package attestsrv

import (
	"context"
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"cloudmonatt/internal/binenc"
	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/interpret"
	"cloudmonatt/internal/latency"
	"cloudmonatt/internal/ledger"
	"cloudmonatt/internal/metrics"
	"cloudmonatt/internal/obs"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/rpc"
	"cloudmonatt/internal/secchan"
	"cloudmonatt/internal/server"
	"cloudmonatt/internal/shard"
	"cloudmonatt/internal/trust/driver"
	"cloudmonatt/internal/vclock"
	"cloudmonatt/internal/wire"
)

// ServerRecord is one provisioned cloud server in the oat database.
type ServerRecord struct {
	Name string
	Addr string
	// IdentityKey (VKs) authenticates the secure channel to the server.
	IdentityKey []byte
	// AIK verifies the server's platform evidence: the TPM AIK, the vTPM
	// hardware endorsement key, or the VCEK, per Backend.
	AIK []byte
	// Backend is the server's provisioned trust backend (empty = the
	// classic TPM Trust Module).
	Backend driver.Backend
	// Properties lists the security properties the server can monitor.
	Properties []properties.Property

	peer string // the measurement channel's name in the peer set
	// log is what this shard has replayed of the server's TPM event log
	// (driver.LogMemory), so that startup evidence carries only the events
	// after it. It belongs to the server's name and AIK: registering the name
	// under another key starts an empty one. Guarded by Server.mu, bounded by
	// the VMs this shard holds a VMRecord for, never exported with them.
	log *driver.LogMemory
}

// Supports reports whether the server can monitor property p.
func (r *ServerRecord) Supports(p properties.Property) bool {
	for _, q := range r.Properties {
		if q == p {
			return true
		}
	}
	return false
}

// VMRecord holds the per-VM appraisal references (from the nova database:
// what the customer declared at launch).
type VMRecord struct {
	Vid           string
	ExpectedImage [32]byte
	TaskAllowlist []string
	MinCPUShare   float64
}

// Config configures the Attestation Server.
type Config struct {
	Identity *cryptoutil.Identity
	PCAName  string
	PCAKey   []byte
	Network  rpc.Network
	Clock    *vclock.Clock
	Latency  *latency.Model
	Verify   secchan.VerifyPeer
	Rand     io.Reader
	// Ledger, when set, receives one evidence entry per appraised report
	// (the durable trail behind the Property Certification Module).
	Ledger *ledger.Ledger
	// CallTimeout bounds each measurement RPC attempt in real time. Zero
	// applies the rpc default (30s).
	CallTimeout time.Duration
	// Retry tunes per-call retries on the channels to cloud servers.
	Retry rpc.RetryPolicy
	// Breaker tunes the per-server circuit breakers.
	Breaker rpc.BreakerPolicy
	// MinTCB is the minimum platform security version accepted from
	// confidential-VM backends — the firmware-rollback floor. Zero means
	// the sev-snp backend's fleet-current version.
	MinTCB driver.TCBVersion
	// Obs, when set, receives one span per appraisal stage (entity
	// "attest-server") plus a root span per periodic tick.
	Obs *obs.Store
	// Properties are the deployment's custom security properties, validated
	// (interpret.Validate): this server asks for each one's Request and
	// appraises it with its Interpret, on every backend.
	Properties []interpret.Spec
	// Ring (required) is the attestation plane this server is one shard
	// of: VM-addressed requests for VMs the ring assigns elsewhere are
	// refused with a WrongShardError naming the owner, instead of being
	// served from possibly-stale local state. A single Attestation Server
	// is the only member of its ring. The identity name is this server's
	// name on it.
	Ring *shard.Ring
}

// Server is the Attestation Server.
type Server struct {
	cfg Config

	mu      sync.Mutex
	servers map[string]*ServerRecord
	vms     map[string]*VMRecord
	peers   *rpc.PeerSet // measurement channels to the cloud servers
	replay  *cryptoutil.ReplayCache
	golden  map[string][32]byte // interpret.GoldenPlatform(), hashed once

	custom   map[properties.Property]interpret.Spec // Config.Properties by name
	periodic *periodicEngine
	metrics  *metrics.Registry
	tracer   *obs.Tracer
}

// New creates an Attestation Server.
func New(cfg Config) *Server {
	s := &Server{
		cfg:     cfg,
		servers: make(map[string]*ServerRecord),
		vms:     make(map[string]*VMRecord),
		replay:  cryptoutil.NewReplayCache(4096),
		golden:  interpret.GoldenPlatform(),
		custom:  make(map[properties.Property]interpret.Spec, len(cfg.Properties)),
		metrics: metrics.NewRegistry(),
		tracer:  obs.NewTracer(cfg.Obs, "attest-server", cfg.Clock.Now),
	}
	for _, spec := range cfg.Properties {
		s.custom[spec.Property] = spec
	}
	// The measurement channels keep their resumption tickets, so a redial
	// to a cloud server skips the asymmetric handshake.
	s.peers = rpc.NewPeerSet(rpc.PeerSetConfig{
		Entity:      "attestsrv",
		Network:     cfg.Network,
		Secchan:     secchan.Config{Identity: cfg.Identity, Verify: cfg.Verify, Rand: cfg.Rand, Session: secchan.NewSessionCache()},
		Retry:       cfg.Retry,
		Breaker:     cfg.Breaker,
		CallTimeout: cfg.CallTimeout,
		Metrics:     s.metrics,
		Ledger:      cfg.Ledger,
		Now:         cfg.Clock.Now,
	})
	s.periodic = newPeriodicEngine(PeriodicConfig{}, s.cfg.Clock.Now, s.drawJitter, s.appraiseOnce, s.metrics, s.tracer)
	return s
}

// Metrics exposes the appraisal-timing registry (virtual-time cost of each
// appraisal per property — the Ceilometer view of §7).
func (s *Server) Metrics() *metrics.Registry { return s.metrics }

// Health reports the Attestation Server's liveness and the breaker state of
// its measurement channels, for the operator /healthz endpoint.
func (s *Server) Health() obs.EntityHealth {
	return obs.EntityHealth{Entity: "attest-server", Alive: true, Peers: s.peers.Health()}
}

// RegisterServer records a provisioned cloud server (its address, identity
// key, TPM AIK, and monitoring capabilities). What was replayed of the
// server's event log stays remembered only if the name was registered under
// the same AIK before.
func (s *Server) RegisterServer(rec ServerRecord) {
	cp := rec
	cp.peer = "server-" + rec.Name
	cp.log = new(driver.LogMemory)
	s.peers.Register(cp.peer, rec.Addr)
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.servers[rec.Name]; ok && cryptoutil.KeyEqual(old.AIK, rec.AIK) {
		cp.log = old.log
	}
	s.servers[rec.Name] = &cp
}

// Servers lists the registered cloud servers.
func (s *Server) Servers() []ServerRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ServerRecord, 0, len(s.servers))
	for _, r := range s.servers {
		out = append(out, *r)
	}
	return out
}

// ServerSupports reports whether a registered server can monitor p.
func (s *Server) ServerSupports(name string, p properties.Property) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.servers[name]
	return ok && r.Supports(p)
}

// RegisterVM records the appraisal references for a VM.
func (s *Server) RegisterVM(rec VMRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := rec
	s.vms[rec.Vid] = &cp
}

// RebindVM points a VM's periodic tasks at its new host after a migration,
// so ongoing monitoring follows the VM through its lifecycle (paper §5.3).
func (s *Server) RebindVM(vid, serverID string) {
	s.periodic.rebind(vid, serverID)
}

// ForgetVM drops a VM's records and any periodic tasks (termination).
func (s *Server) ForgetVM(vid string) {
	s.mu.Lock()
	s.dropVMLocked(vid)
	s.mu.Unlock()
	s.periodic.forget(vid)
}

// dropVMLocked removes a VM's appraisal references and, with them, what is
// remembered of its image entry in any server's event log. The caller holds
// s.mu.
func (s *Server) dropVMLocked(vid string) {
	delete(s.vms, vid)
	for _, r := range s.servers {
		r.log.Forget(vid)
	}
}

// Appraise serves one attestation (the middle of Fig. 3): request
// measurements from the VM's cloud server, validate the signed evidence,
// interpret it, and return the signed report for the controller.
//
// Virtual-time accounting: the two protocol RTTs, the server-side quote and
// certification costs, and the interpretation cost are advanced here; a
// windowed measurement additionally advances the clock inside the cloud
// server's Monitor Kernel. Together these compose the attestation-stage
// latency of Fig. 9 (≈ latency.Model.AttestationExchange plus the window).
func (s *Server) Appraise(req wire.AppraisalRequest) (*wire.Report, error) {
	return s.AppraiseTraced(obs.SpanContext{}, req)
}

// AppraiseTraced is Appraise recording its work as an "appraise" span under
// parent (the controller's span context carried in the rpc envelope), with
// each measurement RPC attempt nesting beneath it.
func (s *Server) AppraiseTraced(parent obs.SpanContext, req wire.AppraisalRequest) (*wire.Report, error) {
	verdict, err := s.appraise(parent, &req)
	if err != nil {
		return nil, err
	}
	return wire.BuildReport(s.cfg.Identity, req.Vid, req.ServerID, req.Prop, verdict, req.N2), nil
}

// appraise is the appraisal itself, up to the verdict; who signs it, and
// what, is the caller's business.
func (s *Server) appraise(parent obs.SpanContext, req *wire.AppraisalRequest) (verdict properties.Verdict, err error) {
	start := s.cfg.Clock.Now()
	sp := s.tracer.Start(parent, "appraise")
	sp.SetVM(req.Vid, string(req.Prop))
	defer func() {
		s.metrics.Summary("appraise/" + string(req.Prop)).Observe(s.cfg.Clock.Now() - start)
		if err != nil {
			sp.EndErr(err)
		} else if !verdict.Healthy {
			sp.End("unhealthy")
		} else {
			sp.End("")
		}
	}()
	spec, custom := s.custom[req.Prop]
	if !custom && !properties.Valid(req.Prop) {
		return verdict, fmt.Errorf("attestsrv: unsupported property %q", req.Prop)
	}
	if !s.replay.Check(req.N2) {
		return verdict, fmt.Errorf("attestsrv: replayed request nonce")
	}
	s.mu.Lock()
	srvRec, okS := s.servers[req.ServerID]
	vmRec, okV := s.vms[req.Vid]
	s.mu.Unlock()
	if !okS {
		return verdict, fmt.Errorf("attestsrv: unknown cloud server %q", req.ServerID)
	}
	if !okV {
		return verdict, fmt.Errorf("attestsrv: no references for VM %q", req.Vid)
	}
	backend := srvRec.Backend.OrDefault()
	sp.Annotate("backend", string(backend))
	s.metrics.Counter("appraise/backend-" + string(backend)).Inc()
	if !driver.Attestable(backend, req.Prop) {
		// The paper's V_fail: the property is outside the backend's
		// capability map, so there is no measurement to request. The signed
		// report says so explicitly — distinct from healthy and from
		// compromised — and the attempt is ledgered like any appraisal.
		s.metrics.Counter("appraise/unattestable").Inc()
		verdict = properties.UnattestableVerdict(req.Prop, string(backend))
		s.recordAppraisal(req, verdict, sp.Context().Trace)
		return verdict, nil
	}
	if !srvRec.Supports(req.Prop) {
		return verdict, fmt.Errorf("attestsrv: server %s cannot monitor %s", req.ServerID, req.Prop)
	}

	var rM properties.Request
	if custom {
		rM = spec.Request
	} else if rM, err = driver.MapToMeasurements(backend, req.Prop); err != nil {
		return verdict, err
	}

	// The tpm backend's startup evidence is incremental: the request says
	// how much of the server's event log this shard has replayed already
	// and the evidence carries the rest (driver.LogMemory). mem is this
	// appraisal's copy, nil wherever evidence is whole by nature.
	var mem *driver.LogMemory
	if backend == driver.BackendTPM && req.Prop == properties.StartupIntegrity {
		s.mu.Lock()
		mem = srvRec.log.For(req.Vid)
		s.mu.Unlock()
		if mem.Count == 0 {
			s.metrics.Counter("appraise/log-from-zero-no-memory").Inc()
		}
	}
	for {
		logFrom := 0
		if mem != nil {
			logFrom = mem.Count
		}
		ev, n3, err := s.measure(sp, srvRec, req.Vid, rM, logFrom)
		if err != nil {
			return verdict, err
		}
		if lat := s.cfg.Latency; lat != nil {
			s.cfg.Clock.Advance(lat.InterpretCost)
		}
		refs := interpret.References{
			ServerAIK:      srvRec.AIK,
			PlatformGolden: s.golden,
			ExpectedImage:  vmRec.ExpectedImage,
			Vid:            req.Vid,
			TaskAllowlist:  vmRec.TaskAllowlist,
			MinCPUShare:    vmRec.MinCPUShare,
			Backend:        backend,
			MinTCB:         s.cfg.MinTCB,
			LogMemory:      mem,
		}
		if custom {
			verdict = spec.Appraise(ev.Measurements, n3, refs)
		} else {
			verdict = interpret.Interpret(req.Prop, ev.Measurements, n3, refs)
		}
		if mem == nil {
			break
		}
		carried := 0
		if q, ok := properties.Find(ev.Measurements, properties.KindPlatformQuote); ok {
			carried = len(q.LogNames)
		}
		s.metrics.Counter("appraise/log-events-replayed").Add(int64(carried))
		sp.Annotate("log-from", strconv.Itoa(logFrom))
		sp.Annotate("log-events", strconv.Itoa(carried))
		s.landLog(srvRec, mem)
		if mem.Miss == "" {
			break
		}
		// The carried events could not be judged on top of what this shard
		// remembers (a handed-off VM, a rebooted server): that is no verdict
		// yet. Ask once more for the whole log and appraise it with nothing
		// remembered, which cannot miss. A whole log that then explains the
		// quote leaves the mismatch visible here and nowhere else.
		s.metrics.Counter("appraise/log-from-zero-" + mem.Miss).Inc()
		sp.Annotate("log-refetch", mem.Miss)
		mem = new(driver.LogMemory)
	}
	s.recordAppraisal(req, verdict, sp.Context().Trace)
	return verdict, nil
}

// measure runs one measurement exchange with a cloud server (Fig. 3's
// middle hops) and returns the verified evidence with the N3 it answers.
// The request asks for the server's event log from event logFrom on. The
// exchange is charged to the virtual clock each time it runs.
func (s *Server) measure(sp *obs.ActiveSpan, srvRec *ServerRecord, vid string, rM properties.Request, logFrom int) (*wire.Evidence, cryptoutil.Nonce, error) {
	c, _ := s.peers.Client(srvRec.peer) // registered with the record
	if lat := s.cfg.Latency; lat != nil {
		s.cfg.Clock.Advance(lat.HopRTT + lat.QuoteCost + lat.CertifyCost)
	}
	// N3 is regenerated for every retry attempt, so a re-issued measurement
	// request is a fresh challenge, never a replay. The client bounds the
	// whole exchange (rpc.OpBudget), so a wedged cloud server degrades this
	// appraisal instead of pinning an attestation worker forever.
	var n3 cryptoutil.Nonce
	ev := new(wire.Evidence)
	if err := c.CallFresh(obs.ContextWith(context.Background(), sp), server.MethodMeasure, func(int) (any, error) {
		n, err := cryptoutil.NewNonce(s.cfg.Rand)
		if err != nil {
			return nil, err
		}
		n3 = n
		return wire.MeasureRequest{Vid: vid, Req: rM, N3: n, LogFrom: uint32(logFrom)}, nil
	}, ev); err != nil {
		return nil, n3, fmt.Errorf("attestsrv: measurement collection failed: %w", err)
	}
	if err := wire.VerifyEvidence(ev, s.cfg.PCAName, ed25519.PublicKey(s.cfg.PCAKey), vid, rM, n3); err != nil {
		return nil, n3, fmt.Errorf("attestsrv: rejecting evidence: %w", err)
	}
	backend := srvRec.Backend.OrDefault()
	if ev.Backend != string(backend) {
		return nil, n3, fmt.Errorf("attestsrv: evidence claims backend %q, server %s is provisioned as %q",
			ev.Backend, srvRec.Name, backend)
	}
	return ev, n3, nil
}

// landLog gives an appraisal's copy of a server's log memory back
// (driver.LogMemory.Land), unless the server has been registered under
// another AIK since the copy was taken. Image entries are kept for the VMs
// this shard holds records for.
func (s *Server) landLog(srvRec *ServerRecord, mem *driver.LogMemory) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.servers[srvRec.Name]; ok && cur.log == srvRec.log {
		cur.log.Land(mem, func(vid string) bool { _, held := s.vms[vid]; return held })
	}
}

// AppraisalRecord is the payload of a ledger.KindAppraisal entry.
type AppraisalRecord struct {
	Server       string
	Backend      string
	Healthy      bool
	Unattestable bool
	Class        string
	Reason       string
}

// AppendWire appends the record's binenc encoding to b.
func (r AppraisalRecord) AppendWire(b []byte) []byte {
	b = binenc.AppendHeader(b, ledger.TagAppraisalRecord)
	b = binenc.AppendString(b, r.Server)
	b = binenc.AppendString(b, r.Backend)
	b = binenc.AppendBool(b, r.Healthy)
	b = binenc.AppendBool(b, r.Unattestable)
	b = binenc.AppendString(b, r.Class)
	return binenc.AppendString(b, r.Reason)
}

// DecodeWire strictly decodes the record from its binenc encoding.
func (r *AppraisalRecord) DecodeWire(data []byte) error {
	rd := binenc.NewReader(data)
	rd.Header(ledger.TagAppraisalRecord)
	*r = AppraisalRecord{}
	r.Server = rd.String()
	r.Backend = rd.String()
	r.Healthy = rd.Bool()
	r.Unattestable = rd.Bool()
	r.Class = rd.String()
	r.Reason = rd.String()
	return ledger.Finish(&rd, "AppraisalRecord")
}

// recordAppraisal appends one evidence entry for an appraised report.
// Appends are best-effort: a full or failing evidence store must not stop
// the attestation path itself (the report is still signed and delivered).
func (s *Server) recordAppraisal(req *wire.AppraisalRequest, v properties.Verdict, trace string) {
	ledger.Record(s.cfg.Ledger, ledger.Entry{At: s.cfg.Clock.Now(), Kind: ledger.KindAppraisal, Vid: req.Vid, Prop: string(req.Prop), Trace: trace},
		AppraisalRecord{req.ServerID, v.Backend, v.Healthy, v.Unattestable, string(v.Class), v.Reason})
}

// --- periodic attestation engine (paper §3.2.1, §5.2) ---
//
// The engine itself lives in periodic.go; the Server supplies the clock,
// the unpredictable jitter source, and the appraisal path.

func taskKey(vid string, p properties.Property) string { return vid + "|" + string(p) }

// StartPeriodic arms periodic attestation of (vid, prop) at the given
// frequency.
func (s *Server) StartPeriodic(vid, serverID string, p properties.Property, freq time.Duration) error {
	return s.periodic.start(vid, serverID, p, freq, false)
}

// StartPeriodicRandom arms periodic attestation at random intervals with
// the given mean frequency, so the schedule is unpredictable to a
// co-resident attacker.
func (s *Server) StartPeriodicRandom(vid, serverID string, p properties.Property, freq time.Duration) error {
	return s.periodic.start(vid, serverID, p, freq, true)
}

// drawJitter draws a uniform value in [0, max) from crypto-grade entropy —
// the schedule must be unpredictable to the adversary, so the simulation
// RNG (which an attacker could re-derive) is deliberately not used.
func (s *Server) drawJitter(max int64) int64 {
	if max <= 0 {
		return 0
	}
	var buf [8]byte
	if _, err := io.ReadFull(s.cfg.Rand, buf[:]); err != nil {
		return max / 2
	}
	v := int64(uint64(buf[0])<<56|uint64(buf[1])<<48|uint64(buf[2])<<40|uint64(buf[3])<<32|
		uint64(buf[4])<<24|uint64(buf[5])<<16|uint64(buf[6])<<8|uint64(buf[7])) & (1<<62 - 1)
	return v % max
}

// appraiseOnce is the engine's appraisal path: generate a fresh N2 and run
// the full appraisal. A nonce failure is an appraisal failure — the engine
// has already rescheduled the task, so entropy exhaustion can never pin a
// task permanently due (the hot loop the linear scheduler had). The report
// is unsigned: the engine keeps its verdict until a drain signs it.
func (s *Server) appraiseOnce(parent obs.SpanContext, vid, serverID string, p properties.Property) (*wire.Report, error) {
	n2, err := cryptoutil.NewNonce(s.cfg.Rand)
	if err != nil {
		s.metrics.Counter("periodic/nonce-failures").Inc()
		return nil, fmt.Errorf("attestsrv: periodic nonce: %w", err)
	}
	req := wire.AppraisalRequest{Vid: vid, ServerID: serverID, Prop: p, N2: n2}
	verdict, err := s.appraise(parent, &req)
	if err != nil {
		return nil, err
	}
	return &wire.Report{Vid: vid, ServerID: serverID, Prop: p, Verdict: verdict, N2: n2}, nil
}

// StopPeriodic disarms a periodic attestation and returns any undelivered
// results with the loss accounting (dropped reports, shed ticks)
// accumulated since the last drain, signed under the controller's n2.
func (s *Server) StopPeriodic(vid string, p properties.Property, n2 cryptoutil.Nonce) PeriodicBatch {
	return s.signBatch(s.periodic.stop(vid, p), vid, p, n2)
}

// FetchPeriodic drains the accumulated fresh results for (vid, prop), with
// the loss accounting since the last drain, signed under the controller's
// n2. A stream that is not armed here drains empty, and that is signed too.
func (s *Server) FetchPeriodic(vid string, p properties.Property, n2 cryptoutil.Nonce) PeriodicBatch {
	return s.signBatch(s.periodic.fetch(vid, p), vid, p, n2)
}

// signBatch binds a drain to its stream and the requester's nonce and signs
// it.
func (s *Server) signBatch(b PeriodicBatch, vid string, p properties.Property, n2 cryptoutil.Nonce) PeriodicBatch {
	b.Vid, b.Prop, b.N2 = vid, p, n2
	SignPeriodicBatch(s.cfg.Identity, &b)
	return b
}

// SignPeriodicBatch signs a drain once with the shard's identity key SKa.
func SignPeriodicBatch(signer *cryptoutil.Identity, b *PeriodicBatch) {
	body := batchBody(b)
	b.Sig = signer.Sign(body[:])
}

// batchBody hashes what a drain's one signature covers: [Vid, P, N2, the
// entries in order (I and R each), Dropped, Skipped].
func batchBody(b *PeriodicBatch) [32]byte {
	var buf [wire.BatchStack]byte
	entries := binenc.AppendUint32(buf[:0], uint32(len(b.Entries)))
	for i := range b.Entries {
		entries = binenc.AppendString(entries, b.Entries[i].ServerID)
		entries = b.Entries[i].Verdict.AppendEncode(entries)
	}
	var loss [16]byte
	binary.BigEndian.PutUint64(loss[:8], b.Dropped)
	binary.BigEndian.PutUint64(loss[8:], b.Skipped)
	return cryptoutil.Hash("periodic-batch", []byte(b.Vid), []byte(b.Prop), b.N2[:], entries, loss[:])
}

// VerifyPeriodicBatch is the controller's check of a drain: one signature
// under the answering shard's key over the whole batch, for this stream and
// the nonce it sent. Nothing in the batch, the loss counts included, is
// meaningful before it passes.
func VerifyPeriodicBatch(b *PeriodicBatch, shardKey ed25519.PublicKey, vid string, p properties.Property, n2 cryptoutil.Nonce) error {
	if b.Vid != vid || b.Prop != p {
		return errors.New("attestsrv: periodic batch does not match the request")
	}
	if b.N2 != n2 {
		return errors.New("attestsrv: periodic batch nonce mismatch (replay?)")
	}
	if body := batchBody(b); !cryptoutil.Verify(shardKey, body[:], b.Sig) {
		return errors.New("attestsrv: periodic batch signature invalid")
	}
	return nil
}

// RunDue appraises every periodic task whose deadline has passed — due
// tasks run concurrently on the engine's bounded worker pool — and returns
// the unsigned reports committed for still-live tasks in this pass. The
// testbed calls it as virtual time advances.
func (s *Server) RunDue() []*wire.Report {
	return s.periodic.runDue()
}

// NextDue returns the earliest pending periodic deadline, or false if no
// periodic tasks are armed.
func (s *Server) NextDue() (time.Duration, bool) {
	return s.periodic.nextDue()
}

// --- sharded attestation plane ---

// Shard returns this server's name on the ring.
func (s *Server) Shard() string { return s.cfg.Identity.Name }

// checkOwner enforces ring ownership for a VM-addressed request. Local
// ownership passes; otherwise the caller gets a WrongShardError naming the
// owner under this shard's current view, so it can retry against the right
// shard without a view refresh.
func (s *Server) checkOwner(vid string) error {
	owner, epoch, ok := s.cfg.Ring.Lookup(vid)
	if ok && owner == s.Shard() {
		return nil
	}
	s.metrics.Counter("attestsrv/wrong-shard-rejections").Inc()
	return &shard.WrongShardError{Key: vid, Owner: owner, Epoch: epoch}
}

// ShardState is the portable slice of a shard's VM-addressed state: the
// appraisal reference records and the armed periodic streams for a set of
// VMs. It is what moves between shards on a rebalance.
type ShardState struct {
	VMs   []VMRecord
	Tasks []PeriodicTaskState
}

// ExportNotOwned removes and returns the state of every VM the ring no
// longer assigns to this shard. In-flight periodic appraisals of exported
// tasks resolve as counted stopped-discards locally; all future ticks
// belong to the importing shard.
func (s *Server) ExportNotOwned() ShardState {
	moved := func(vid string) bool { return !s.cfg.Ring.Owns(s.Shard(), vid) }
	var st ShardState
	s.mu.Lock()
	for vid, rec := range s.vms {
		if moved(vid) {
			st.VMs = append(st.VMs, *rec)
			s.dropVMLocked(vid)
		}
	}
	s.mu.Unlock()
	st.Tasks = s.periodic.exportWhere(moved)
	return st
}

// ImportShardState installs handed-off VM state. VM records overwrite (they
// are immutable launch references, so last-write is identical); task
// imports are idempotent — a (vid, prop) stream already armed here is left
// untouched, so a retried handoff cannot double-arm. A task for a VM this
// shard then holds no record of is not armed: every tick of it could only
// fail. Returns how many tasks were newly armed.
func (s *Server) ImportShardState(st ShardState) int {
	s.mu.Lock()
	for i := range st.VMs {
		cp := st.VMs[i]
		s.vms[cp.Vid] = &cp
	}
	var tasks []PeriodicTaskState
	for _, t := range st.Tasks {
		if _, held := s.vms[t.Vid]; held {
			tasks = append(tasks, t)
		}
	}
	s.mu.Unlock()
	armed := 0
	for _, t := range tasks {
		if s.periodic.importTask(t) {
			armed++
		}
	}
	return armed
}

// PeriodicTaskKeys lists the armed (vid, prop) streams; the churn race test
// uses it to prove a handoff conserved the task set.
func (s *Server) PeriodicTaskKeys() []string {
	return s.periodic.taskKeys()
}
