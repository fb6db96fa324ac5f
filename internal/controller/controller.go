// Package controller implements the CloudMonatt Cloud Controller (paper
// §3.2.2, Fig. 8's modified OpenStack Nova): the nova api serving the
// Table 1 attestation commands, the nova database of VMs and server
// capabilities, the property-aware filter scheduler (Policy Validation
// Module), the five-stage launch pipeline (Deployment Module), the
// attest_service brokering attestations through the Attestation Server,
// and the Response Module executing Termination / Suspension / Migration
// when a VM's security health fails.
package controller

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"cloudmonatt/internal/attestsrv"
	"cloudmonatt/internal/binenc"
	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/fifo"
	"cloudmonatt/internal/image"
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

// ResponseKind is one remediation response (paper §5.2).
type ResponseKind string

// The three implemented responses.
const (
	Terminate ResponseKind = "termination"
	Suspend   ResponseKind = "suspension"
	Migrate   ResponseKind = "migration"
)

// DefaultPolicy maps each property to the response its failure triggers.
func DefaultPolicy() map[properties.Property]ResponseKind {
	return map[properties.Property]ResponseKind{
		properties.RuntimeIntegrity:     Terminate,
		properties.CovertChannelFreedom: Migrate,
		properties.CPUAvailability:      Migrate,
	}
}

// ServerEntry is one cloud server known to the controller.
type ServerEntry struct {
	Name     string
	Addr     string
	Capacity server.Capacity
	Props    []properties.Property
	// Backend is the server's trust backend type ("tpm", "vtpm",
	// "sev-snp"; empty = tpm), recorded in launch and remediation ledger
	// entries so the evidence trail names the root of trust involved.
	Backend driver.Backend

	peer string // the management channel's name in the peer set
}

func (e *ServerEntry) supports(ps []properties.Property) bool {
	have := make(map[properties.Property]bool, len(e.Props))
	for _, p := range e.Props {
		have[p] = true
	}
	for _, p := range ps {
		if !have[p] {
			return false
		}
	}
	return true
}

// vmRecord is the nova database row for one VM: the declared desired
// state (image, flavor, properties, owner — and the teardown finalizer)
// joined to the observed state (placement, lifecycle state, conditions)
// the reconcile loop converges toward it.
type vmRecord struct {
	Vid       string
	Owner     string
	Server    string
	ImageName string
	Flavor    image.Flavor
	Props     []properties.Property
	Workload  string
	State     string // active | suspended | terminated
	// SuspendedFor records which failing property triggered a suspension,
	// so the recheck (paper §5.2 response #2) re-attests the same property.
	SuspendedFor properties.Property

	// Conditions is the typed observed-state summary (Placed, Attested,
	// Healthy, Remediating, Terminating) with virtual-clock transition
	// times.
	Conditions []wire.Condition
	// Deleted is the teardown finalizer: the desired state is "gone", and
	// the reconcile loop keeps finishing the teardown (capacity release,
	// host terminate, appraiser forget) until Finalized.
	Deleted   bool
	Finalized bool
	// Released guards the capacity release within one process lifetime so
	// finalizer retries never double-release. (Recovery rebuilds `used`
	// from the ledger, so the flag intentionally does not persist.)
	Released bool
	// Pending is a declared-but-incomplete remediation; the reconcile loop
	// retries it to convergence.
	Pending *pendingRemediation
	// MigratedOut marks a half-finished migration: the VM has left Server
	// (spec captured in MigrateSpec) but is not yet relaunched elsewhere.
	MigratedOut bool
	MigrateSpec *server.LaunchSpec
	// terminateIntent is the open two-phase intent the finalizer must
	// close.
	terminateIntent string
	// nextReattest schedules the loop-driven periodic re-attestation.
	nextReattest time.Duration
	// lastEvent/lastErr surface the most recent remediation pass outcome
	// to the synchronous Respond API.
	lastEvent *ResponseEvent
	lastErr   error
}

// pendingRemediation is a declared policy response awaiting convergence.
type pendingRemediation struct {
	Prop     properties.Property
	Reason   string
	Response ResponseKind
	IntentID string
	Attempts int
}

// ResponseEvent records one executed remediation response.
type ResponseEvent struct {
	Vid        string
	Prop       properties.Property
	Response   ResponseKind
	Reason     string
	At         time.Duration // virtual time of execution
	Duration   time.Duration // modeled reaction time
	NewServer  string        // for migrations
	Terminated bool
}

// Config configures the Cloud Controller.
type Config struct {
	Identity *cryptoutil.Identity
	Network  rpc.Network
	Clock    *vclock.Clock
	Latency  *latency.Model
	Images   *image.Library
	Verify   secchan.VerifyPeer
	Rand     io.Reader
	// Ring (required) is the controller's view of the attestation plane:
	// VM ids hash onto it, its members are registered with
	// RegisterAttestShard, and wrong-shard refusals are followed to the
	// owner the refusing shard names. A one-member ring is the paper's
	// single Attestation Server.
	Ring   *shard.Ring
	Policy map[properties.Property]ResponseKind
	// ImageTamper, when set, corrupts image bytes in storage/transit before
	// they are measured on the cloud server (failure injection for the
	// startup-integrity case study).
	ImageTamper func(name string, data []byte) []byte
	// Ledger, when set, receives evidence entries for launch decisions and
	// executed remediation responses.
	Ledger *ledger.Ledger
	// RPC is the fault-tolerance policy of the controller's channels to the
	// Attestation Servers and cloud servers.
	RPC rpc.Policy
	// Obs, when set, receives distributed-tracing spans: the customer-facing
	// nova api records the root span of each request and the controller's
	// internal stages nest under it.
	Obs *obs.Store
	// ReattestEvery, when positive, schedules a periodic re-attestation of
	// every active VM's provisioned properties through the reconcile loop
	// (an explicit requeue-after on the VM's key). 0 disables it; customers
	// can still drive runtime_attest_periodic explicitly.
	ReattestEvery time.Duration
	// FailPoint, when set, is consulted at named crash points in the
	// control plane. Returning true makes the in-flight operation die
	// there — after any intent entry already appended, before the
	// completion entry — exactly as a controller crash would. Crash
	// recovery testing only.
	FailPoint func(point string) bool
}

// Controller is the Cloud Controller.
type Controller struct {
	cfg Config
	// apiTracer records the customer-facing root spans (entity
	// "customer-api", the nova api edge); tracer records the controller's
	// internal work. Both are nil (and free) when Config.Obs is unset.
	apiTracer *obs.Tracer
	tracer    *obs.Tracer
	// api is the nova api's dispatch, built once: the testbed's listener
	// asks for it on every request.
	api rpc.Handler

	// queue is the level-triggered reconcile loop's work queue; every VM
	// on it is driven toward its desired state with per-VM serialization.
	queue *workQueue

	// metrics holds the retry, breaker and degradation counters; peers is
	// every outbound channel (cloud-server management endpoints and
	// attestation shards).
	metrics *metrics.Registry
	peers   *rpc.PeerSet

	mu         sync.Mutex
	servers    map[string]*ServerEntry
	used       map[string]server.Capacity
	vms        map[string]*vmRecord
	shards     map[string]shardEntry // RegisterAttestShard
	nextVid    int
	nextIntent int
	replay     *cryptoutil.ReplayCache
	events     fifo.Queue[ResponseEvent] // the last eventsCap executed remediations
	policy     map[properties.Property]ResponseKind
	lastGood   map[string]lastVerdict
}

// lastVerdict caches the most recent verified verdict for one (vid, prop),
// the source of stale reports during degradation.
type lastVerdict struct {
	verdict properties.Verdict
	at      time.Duration // virtual time of the appraisal
}

// New creates a controller.
func New(cfg Config) *Controller {
	if cfg.Policy == nil {
		cfg.Policy = DefaultPolicy()
	}
	if cfg.Ring == nil {
		// An empty ring: the first route reports it, instead of a nil
		// dereference deep in a launch.
		cfg.Ring = shard.NewRing(0, 0)
	}
	c := &Controller{
		cfg:       cfg,
		apiTracer: obs.NewTracer(cfg.Obs, "customer-api", cfg.Clock.Now),
		tracer:    obs.NewTracer(cfg.Obs, "controller", cfg.Clock.Now),
		metrics:   metrics.NewRegistry(),
		servers:   make(map[string]*ServerEntry),
		used:      make(map[string]server.Capacity),
		vms:       make(map[string]*vmRecord),
		shards:    make(map[string]shardEntry),
		replay:    cryptoutil.NewReplayCache(4096),
		events:    fifo.New[ResponseEvent](eventsCap),
		policy:    cfg.Policy,
		lastGood:  make(map[string]lastVerdict),
	}
	c.peers = rpc.NewPeerSet(rpc.PeerSetConfig{
		Entity:  "controller",
		Network: cfg.Network,
		Secchan: secchan.Config{Identity: cfg.Identity, Verify: cfg.Verify, Rand: cfg.Rand},
		Policy:  cfg.RPC,
		Metrics: c.metrics,
		Ledger:  cfg.Ledger,
		Now:     cfg.Clock.Now,
	})
	c.queue = newWorkQueue(cfg.Clock.Now, c.metrics)
	c.api = c.apiMethods().Handler("controller")
	return c
}

// Metrics returns the controller's registry (retry, breaker and
// degradation counters).
func (c *Controller) Metrics() *metrics.Registry { return c.metrics }

// Health reports the controller's liveness and the breaker state of every
// RPC channel it holds, for the operator /healthz endpoint.
func (c *Controller) Health() obs.EntityHealth {
	ready, delayed := c.queue.lens()
	return obs.EntityHealth{Entity: "controller", Alive: true, Peers: c.peers.Health(), Queue: &obs.QueueHealth{
		Ready:   ready,
		Delayed: delayed,
		Dropped: uint64(c.queue.dropped.Value()),
	}}
}

// record appends one evidence entry, best-effort: the ledger is the audit
// trail, not a gate on the control path. trace, when non-empty, lets an
// auditor join the evidence to the request's distributed trace. It is a
// function, not a method, so that it can be generic like ledger.Record and
// hand rec on unboxed.
func record[R ledger.Appender](c *Controller, kind ledger.Kind, vid string, prop properties.Property, trace string, rec R) {
	ledger.Record(c.cfg.Ledger, ledger.Entry{At: c.cfg.Clock.Now(), Kind: kind, Vid: vid, Prop: string(prop), Trace: trace}, rec)
}

// RegisterServer adds a cloud server to the scheduling pool.
func (c *Controller) RegisterServer(e ServerEntry) {
	cp := e
	cp.peer = "server-" + e.Name
	c.peers.Register(cp.peer, e.Addr)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.servers[e.Name] = &cp
}

// eventsCap bounds the in-memory remediation event list: beyond it the
// oldest event is dropped (and counted in controller/events-dropped), as
// the span store drops its oldest span.
const eventsCap = 1024

// Events returns the executed remediation responses (the most recent
// eventsCap of them; older ones are dropped from the list but remain in
// the evidence ledger).
func (c *Controller) Events() []ResponseEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.events.AppendTo(nil)
}

// appendEvent records an executed remediation in the bounded drop-oldest
// event list. Evictions are counted; the ledger keeps the full history.
func (c *Controller) appendEvent(ev ResponseEvent) {
	c.mu.Lock()
	_, dropped := c.events.Push(ev)
	c.mu.Unlock()
	if dropped {
		c.metrics.Counter("controller/events-dropped").Inc()
	}
}

// VMSummary is one row of the nova database as shown to its owner.
type VMSummary struct {
	Vid       string
	ImageName string
	Flavor    string
	Workload  string
	Props     []properties.Property
	State     string
}

// ListVMs returns the (non-terminated) VMs belonging to owner, sorted by id.
func (c *Controller) ListVMs(owner string) []VMSummary {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []VMSummary
	for _, rec := range c.vms {
		if rec.Owner != owner || rec.State == "terminated" {
			continue
		}
		out = append(out, VMSummary{
			Vid:       rec.Vid,
			ImageName: rec.ImageName,
			Flavor:    rec.Flavor.Name,
			Workload:  rec.Workload,
			Props:     append([]properties.Property(nil), rec.Props...),
			State:     rec.State,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Vid < out[j].Vid })
	return out
}

// EventsFor returns the remediation responses executed on owner's VMs.
func (c *Controller) EventsFor(owner string) []ResponseEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.DeleteFunc(c.events.AppendTo(nil), func(ev ResponseEvent) bool {
		rec, ok := c.vms[ev.Vid]
		return !ok || rec.Owner != owner
	})
}

// mgmtClient returns the fault-tolerant client for a cloud server's
// management endpoint (connections are established lazily per call).
func (c *Controller) mgmtClient(name string) (*rpc.ReconnectClient, error) {
	c.mu.Lock()
	entry, ok := c.servers[name]
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("controller: unknown server %q", name)
	}
	cl, _ := c.peers.Client(entry.peer) // registered with the entry
	return cl, nil
}

// --- Policy Validation Module: the property-aware filter scheduler ---

// candidates returns servers passing the property_filter (capability check)
// and the capacity filter, best-first (most free vCPUs, then memory — the
// OpenStack workload-balance weigher). A named server is an explicitly
// requested placement: only it is considered, regardless of its property
// support (LaunchRequest.Server documents why); capacity is still enforced.
func (c *Controller) candidates(f image.Flavor, props []properties.Property, named, exclude string) []*ServerEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	free := func(e *ServerEntry) server.Capacity { return e.Capacity.Minus(c.used[e.Name]) }
	var out []*ServerEntry
	for _, e := range c.servers {
		if e.Name == exclude || (named != "" && e.Name != named) {
			continue
		}
		if named == "" && !e.supports(props) {
			continue
		}
		if !free(e).Fits(f) {
			continue
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if d := roomier(free(out[i]), free(out[j])); d != 0 {
			return d > 0
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// offered reports whether some registered server offers property p.
func (c *Controller) offered(p properties.Property) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.servers {
		if slices.Contains(e.Props, p) {
			return true
		}
	}
	return false
}

// roomier is the weigher's order on free capacity: positive when a has more
// free vCPUs than b or, at equal vCPUs, more free memory; zero on a tie.
func roomier(a, b server.Capacity) int {
	if d := a.VCPUs - b.VCPUs; d != 0 {
		return d
	}
	return a.MemoryMB - b.MemoryMB
}

// serverBackend reports a registered server's trust backend ("tpm" when
// unset; empty for unknown servers, e.g. a launch that never placed).
func (c *Controller) serverBackend(name string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.servers[name]
	if !ok {
		return ""
	}
	return string(e.Backend.OrDefault())
}

func (c *Controller) reserve(name string, f image.Flavor) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.used[name] = c.used[name].Add(f)
}

func (c *Controller) release(name string, f image.Flavor) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.used[name] = c.used[name].Sub(f)
}

// UsedCapacity reports the resources currently reserved on a server. Every
// reserve must be balanced by a release when the VM dies or fails to
// launch — the capacity-accounting test audits this via UsedCapacity.
func (c *Controller) UsedCapacity(name string) server.Capacity {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used[name]
}

// --- Deployment Module: the five-stage launch pipeline ---

// LaunchRequest is the customer's VM request (nova api extended with the
// monitoring/attestation options, §6.1).
type LaunchRequest struct {
	// Owner is not part of the wire encoding: the launch_vm handler sets
	// it to the authenticated peer, in-process callers set it themselves.
	Owner     string
	ImageName string
	Flavor    string
	Workload  string
	Props     []properties.Property
	Allowlist []string
	MinShare  float64
	// Pin requests a specific pCPU on the host (co-residency experiments).
	Pin int
	// Server, when set, requests placement on that specific server,
	// bypassing the property filter (capacity is still enforced). This is
	// how mixed-fleet experiments position a VM on a trust backend that
	// cannot attest every requested property: the launch proceeds, and the
	// uncoverable properties later appraise as unattestable (V_fail)
	// rather than being silently scheduled away from.
	Server string
}

// StageTiming is one launch-pipeline stage's duration (Fig. 9).
type StageTiming struct {
	Stage    string
	Duration time.Duration
}

// LaunchResult reports the outcome of a launch.
type LaunchResult struct {
	Vid     string
	Server  string
	OK      bool
	Reason  string
	Stages  []StageTiming
	Verdict properties.Verdict // startup attestation result
}

// launchOp is one launch request on its way through the pipeline: what was
// asked for, resolved once, plus the span and result every stage reports
// into.
type launchOp struct {
	c      *Controller
	vid    string
	req    LaunchRequest
	flavor image.Flavor
	img    *image.Image
	golden [32]byte
	span   *obs.ActiveSpan // the "launch" span; nil-safe when untraced
	result *LaunchResult
}

// stage charges one modeled pipeline stage: a child span of the launch
// span around the virtual-clock advance, and a row of the Fig. 9 breakdown.
func (l *launchOp) stage(name string, d time.Duration) {
	ssp := l.span.Child("stage:" + name)
	l.c.cfg.Clock.Advance(d)
	ssp.End("")
	l.result.Stages = append(l.result.Stages, StageTiming{Stage: name, Duration: d})
}

// LaunchRecord is the payload of a ledger.KindLaunch entry: one launch
// decision, accepted or rejected.
type LaunchRecord struct {
	OK      bool
	Owner   string
	Server  string
	Backend string
	Reason  string
}

// AppendWire appends the record's binenc encoding to b.
func (r LaunchRecord) AppendWire(b []byte) []byte {
	b = binenc.AppendHeader(b, ledger.TagLaunchRecord)
	b = binenc.AppendBool(b, r.OK)
	b = binenc.AppendString(b, r.Owner)
	b = binenc.AppendString(b, r.Server)
	b = binenc.AppendString(b, r.Backend)
	return binenc.AppendString(b, r.Reason)
}

// DecodeWire strictly decodes the record from its binenc encoding.
func (r *LaunchRecord) DecodeWire(data []byte) error {
	rd := binenc.NewReader(data)
	rd.Header(ledger.TagLaunchRecord)
	*r = LaunchRecord{}
	r.OK = rd.Bool()
	r.Owner = rd.String()
	r.Server = rd.String()
	r.Backend = rd.String()
	r.Reason = rd.String()
	return ledger.Finish(&rd, "LaunchRecord")
}

// LaunchVMTraced runs the launch pipeline: Scheduling → Networking →
// Block_device_mapping → Spawning → Attestation (the fifth stage
// CloudMonatt adds, §7.1.1). A platform-integrity failure reschedules onto
// the next qualified server; an image-integrity failure rejects the launch
// (paper §5.1). The pipeline is recorded under parent: one "launch" span
// with a child span per stage, so the Fig. 9 stage breakdown can be read
// from real per-request spans.
func (c *Controller) LaunchVMTraced(parent obs.SpanContext, req LaunchRequest) (result LaunchResult, retErr error) {
	flavor, err := image.FlavorByName(req.Flavor)
	if err != nil {
		return LaunchResult{}, err
	}
	for _, p := range req.Props {
		if !c.offered(p) {
			return LaunchResult{}, fmt.Errorf("controller: unsupported property %q", p)
		}
	}
	// Written so that NaN fails it too.
	if !(req.MinShare >= 0 && req.MinShare <= 1) {
		return LaunchResult{}, fmt.Errorf("controller: minimum CPU share %v is not within [0, 1]", req.MinShare)
	}
	if req.Pin < -1 {
		return LaunchResult{}, fmt.Errorf("controller: pin %d is neither a pCPU nor -1 (spread)", req.Pin)
	}
	img, err := c.cfg.Images.Get(req.ImageName)
	if err != nil {
		return LaunchResult{}, err
	}
	if c.cfg.ImageTamper != nil {
		tampered := c.cfg.ImageTamper(req.ImageName, img.Bytes())
		copy(img.Bytes(), tampered)
	}
	golden, err := c.cfg.Images.GoldenDigest(req.ImageName)
	if err != nil {
		return LaunchResult{}, err
	}

	c.mu.Lock()
	c.nextVid++
	vid := fmt.Sprintf("vm-%04d", c.nextVid)
	c.mu.Unlock()

	// Declare the desired state *before* acting: the launch-begin intent
	// carries the full request, so a crashed launch can be recognized (and
	// cleaned up) from the ledger alone.
	props := make([]string, len(req.Props))
	for i, p := range req.Props {
		props[i] = string(p)
	}
	launchIntent := c.intentBegin(vid, "", IntentRecord{
		Op: "launch", Owner: req.Owner, Image: req.ImageName,
		Flavor: req.Flavor, Workload: req.Workload, Props: props,
		Allowlist: req.Allowlist, MinShare: req.MinShare, Pin: req.Pin,
		ReqServer: req.Server,
	})

	result = LaunchResult{Vid: vid}
	lsp := c.tracer.Start(parent, "launch")
	lsp.SetVM(vid, "")
	// Every launch decision — accept or reject, with the placement and the
	// rejection reason — leaves an evidence entry, joined to the trace. A
	// simulated crash skips the completion records, exactly as a real
	// controller death would.
	defer func() {
		if errors.Is(retErr, ErrCrash) {
			lsp.End("crashed")
			return
		}
		if result.OK {
			lsp.End("")
		} else {
			lsp.End("rejected: " + result.Reason)
		}
		record(c, ledger.KindLaunch, vid, "", lsp.Context().Trace,
			LaunchRecord{result.OK, req.Owner, result.Server, c.serverBackend(result.Server), result.Reason})
		c.intentEnd(vid, IntentRecord{
			Op: "launch", ID: launchIntent, OK: result.OK, Server: result.Server,
		})
	}()
	l := &launchOp{c: c, vid: vid, req: req, flavor: flavor, img: img, golden: golden, span: lsp, result: &result}

	// Stage 1: Scheduling (the property_filter consults the capability DB,
	// unless the request pins an explicit server).
	cands := c.candidates(flavor, req.Props, req.Server, "")
	l.stage("scheduling", c.cfg.Latency.Scheduling(len(c.servers)))
	if len(cands) == 0 {
		if req.Server != "" {
			result.Reason = fmt.Sprintf("requested server %s is unknown or lacks capacity", req.Server)
		} else {
			result.Reason = "no qualified server supports the requested properties with free capacity"
		}
		return result, nil
	}

	// Stages 2–5, retrying on another qualified server if the platform
	// fails its integrity attestation.
	for _, cand := range cands {
		placed, err := l.place(cand)
		if err != nil || placed {
			return result, err
		}
		if v := result.Verdict; v.Details["component"] == "" && !v.Healthy && verdictBlamesImage(v) {
			// Compromised VM image: rejecting, not rescheduling.
			return result, nil
		}
	}
	return result, nil
}

// verdictBlamesImage decides reject-vs-reschedule for a failed startup
// attestation: an image failure follows the VM everywhere, so relaunching
// on another server is pointless. The interpreter's typed class is
// authoritative; unclassified verdicts (custom interpreters) fall back to
// the reason text.
func verdictBlamesImage(v properties.Verdict) bool {
	if v.Class != properties.FailureUnclassified {
		return v.Class == properties.FailureImage
	}
	return strings.Contains(v.Reason, "image")
}

// place runs stages 2–5 on one candidate server and reports whether the VM
// now runs there. If not, l.result says why (and carries the failing
// verdict when the attestation produced one), and the one deferred block
// below has undone whatever the attempt created.
func (l *launchOp) place(cand *ServerEntry) (placed bool, err error) {
	c, res := l.c, l.result
	res.Verdict = properties.Verdict{}
	mgmt, _ := c.peers.Client(cand.peer) // registered with the entry
	if err := mgmt.Connect(context.Background()); err != nil {
		// An unreachable server is a candidate failure, not a launch
		// failure: the scheduler moves on to the next qualified host.
		res.Reason = fmt.Sprintf("server %s unreachable: %v", cand.Name, err)
		return false, nil
	}

	l.stage("networking", c.cfg.Latency.Networking(l.flavor))
	l.stage("block_device_mapping", c.cfg.Latency.BlockDeviceMapping(l.flavor))

	// The place intent goes in *before* the spawn: a crash after the guest
	// exists but before any completion record leaves a torn place intent
	// naming the server, which recovery cleans up.
	placeIntent := c.intentBegin(l.vid, "", IntentRecord{Op: "place", Server: cand.Name})
	// Every failure from here on undoes what the attempt got to — a guest or
	// reservation left behind leaks capacity until the host is drained — and
	// closes the place intent as failed. A crash undoes nothing: guest,
	// reservation and both intents stay torn for Recover.
	spawned, rowInstalled := false, false
	defer func() {
		if placed || errors.Is(err, ErrCrash) {
			return
		}
		if rowInstalled {
			c.mu.Lock()
			delete(c.vms, l.vid)
			c.mu.Unlock()
		}
		if spawned {
			c.release(cand.Name, l.flavor)
			// Best effort: the host may be what failed.
			_ = c.evict(l.vid, cand.Name)
		}
		c.intentEnd(l.vid, IntentRecord{Op: "place", ID: placeIntent, OK: false})
	}()

	if err := c.spawn(cand.Name, server.LaunchSpec{
		Vid:         l.vid,
		ImageName:   l.req.ImageName,
		ImageDigest: l.img.Digest(), // what actually arrived at the server
		Flavor:      l.flavor,
		Workload:    l.req.Workload,
		Pin:         l.req.Pin,
	}); err != nil {
		res.Reason = fmt.Sprintf("spawn failed on %s: %v", cand.Name, err)
		return false, nil
	}
	spawned = true
	l.stage("spawning", c.cfg.Latency.Spawning(l.img, l.flavor))
	if err := c.failpoint("launch-spawned"); err != nil {
		return false, err
	}

	// Register appraisal references with the VM's owning shard and record
	// the VM before attesting.
	if _, err := c.callVM(l.vid, func(rt attestRoute) error {
		return rt.client.CallCtx(context.Background(), attestsrv.MethodRegisterVM, attestsrv.VMRecord{
			Vid:           l.vid,
			ExpectedImage: l.golden,
			TaskAllowlist: l.req.Allowlist,
			MinCPUShare:   l.req.MinShare,
		}, nil)
	}); err != nil {
		return false, err
	}
	rec := &vmRecord{
		Vid: l.vid, Owner: l.req.Owner, Server: cand.Name,
		ImageName: l.req.ImageName, Flavor: l.flavor, Props: l.req.Props,
		Workload: l.req.Workload, State: "active",
	}
	c.mu.Lock()
	c.vms[l.vid] = rec
	c.mu.Unlock()
	rowInstalled = true

	// Stage 5: Attestation — startup integrity of platform and image.
	attStart := c.cfg.Clock.Now()
	asp := l.span.Child("stage:attestation")
	asp.SetVM(l.vid, string(properties.StartupIntegrity))
	rep, err := c.verifiedAppraisal(asp, l.vid, cand.Name, properties.StartupIntegrity)
	if err != nil {
		asp.EndErr(err)
		what := "startup attestation failed"
		if isBadReport(err) {
			what = "attestation report rejected"
		}
		res.Reason = fmt.Sprintf("%s: %v", what, err)
		return false, nil
	}
	asp.End("")
	res.Stages = append(res.Stages, StageTiming{Stage: "attestation", Duration: c.cfg.Clock.Now() - attStart})

	res.Verdict = rep.Verdict
	if !rep.Verdict.Healthy {
		res.Reason = rep.Verdict.Reason
		return false, nil
	}
	c.storeLastGood(l.vid, properties.StartupIntegrity, rep.Verdict)
	c.intentEnd(l.vid, IntentRecord{Op: "place", ID: placeIntent, OK: true, Server: cand.Name})
	c.setCond(rec, condPlaced, statusTrue, "Scheduled", cand.Name)
	c.setCond(rec, condAttested, statusTrue, "Verified", string(properties.StartupIntegrity))
	c.setCond(rec, condHealthy, statusTrue, "Verified", string(properties.StartupIntegrity))
	// Hand the VM to the reconcile loop (periodic re-attestation rides on
	// its requeue-after schedule).
	c.queue.add(l.vid)
	res.OK, res.Server = true, cand.Name
	return true, nil
}

// spawn starts a guest on a host and books its flavor against the host in
// the controller's capacity ledger — launch stage 4 and a migration's
// relaunch. The idempotency key lets the call be retried without
// double-booking the host if only the response was lost.
func (c *Controller) spawn(srv string, spec server.LaunchSpec) error {
	mgmt, err := c.mgmtClient(srv)
	if err != nil {
		return err
	}
	if err := mgmt.CallIdem(context.Background(), server.MethodLaunch, spec, nil); err != nil {
		return err
	}
	c.reserve(srv, spec.Flavor)
	return nil
}

// evict takes a guest off a host and drops its appraisal state on its
// owning shard: the one way a VM leaves the fleet, whether a launch is
// unwinding, a teardown finalizing or recovery sweeping a torn placement.
// Idempotent — "no VM" from the host is the converged outcome of an earlier
// pass — so callers simply repeat it after a transport failure. Capacity is
// the caller's to release: only it knows whether a reservation is held.
func (c *Controller) evict(vid, srv string) error {
	mgmt, err := c.mgmtClient(srv)
	if err != nil {
		return err
	}
	if err := mgmt.CallIdem(context.Background(), server.MethodTerminate, wire.VidRequest{Vid: vid}, nil); err != nil && !isNoVM(err) {
		return err
	}
	c.forgetVM(vid)
	return nil
}

// storeLastGood caches a verified verdict for degradation.
func (c *Controller) storeLastGood(vid string, p properties.Property, v properties.Verdict) {
	c.mu.Lock()
	c.lastGood[vid+"|"+string(p)] = lastVerdict{verdict: v, at: c.cfg.Clock.Now()}
	c.mu.Unlock()
}

// lastGoodFor returns the cached verdict for (vid, prop), if any.
func (c *Controller) lastGoodFor(vid string, p properties.Property) (lastVerdict, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	lg, ok := c.lastGood[vid+"|"+string(p)]
	return lg, ok
}

// forgetVM drops a VM's appraisal references and periodic tasks on its
// owning shard. Best effort: the Attestation Server tolerates appraising a
// forgotten VM, and a later pass (finalizer, recovery) repeats the call.
func (c *Controller) forgetVM(vid string) {
	c.callVM(vid, func(rt attestRoute) error {
		return rt.client.CallCtx(context.Background(), attestsrv.MethodForgetVM, wire.VidRequest{Vid: vid}, nil)
	})
}
