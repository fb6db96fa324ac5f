package controller

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"cloudmonatt/internal/binenc"
	"cloudmonatt/internal/ledger"
	"cloudmonatt/internal/obs"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/rpc"
	"cloudmonatt/internal/server"
	"cloudmonatt/internal/wire"
)

// ErrCrash is the simulated-crash sentinel: a Config.FailPoint firing
// makes the in-flight operation fail with an error wrapping it, leaving
// exactly the ledger state a real controller death at that point would —
// intents begun, completions missing. Tests match it with errors.Is.
var ErrCrash = errors.New("controller: crash injected")

// failpoint consults Config.FailPoint and returns the crash sentinel when
// the named point fires.
func (c *Controller) failpoint(point string) error {
	if c.cfg.FailPoint != nil && c.cfg.FailPoint(point) {
		return fmt.Errorf("%w at %s", ErrCrash, point)
	}
	return nil
}

// --- two-phase intents ---

// IntentRecord is the payload of a ledger.KindIntent entry. One struct
// covers every op; an op leaves the fields it does not use zero.
type IntentRecord struct {
	Phase string // begin | end
	Op    string // launch | place | remediate | terminate | migrate-out | migrated | state
	ID    string
	OK    bool

	// launch begin: the full desired state being declared.
	Owner     string
	Image     string
	Flavor    string
	Workload  string
	Props     []string
	Allowlist []string
	MinShare  float64
	Pin       int
	ReqServer string

	// place begin / launch end / migrate-out end / migrated end: placement.
	Server string

	// remediate begin/end.
	Response   string
	Reason     string
	NewServer  string
	Terminated bool

	// state end: a lifecycle transition outside remediation.
	State string

	// migrate-out end: the captured spec that relaunches the VM.
	Spec *server.LaunchSpec
}

// AppendWire appends the record's binenc encoding to b. Spec rides as its
// own LaunchSpec encoding behind a length, empty when Spec is nil.
func (r IntentRecord) AppendWire(b []byte) []byte {
	b = binenc.AppendHeader(b, ledger.TagIntentRecord)
	b = binenc.AppendString(b, r.Phase)
	b = binenc.AppendString(b, r.Op)
	b = binenc.AppendString(b, r.ID)
	b = binenc.AppendBool(b, r.OK)
	b = binenc.AppendString(b, r.Owner)
	b = binenc.AppendString(b, r.Image)
	b = binenc.AppendString(b, r.Flavor)
	b = binenc.AppendString(b, r.Workload)
	b = appendStrings(b, r.Props)
	b = appendStrings(b, r.Allowlist)
	b = binenc.AppendUint64(b, math.Float64bits(r.MinShare))
	b = binenc.AppendUint64(b, uint64(r.Pin))
	b = binenc.AppendString(b, r.ReqServer)
	b = binenc.AppendString(b, r.Server)
	b = binenc.AppendString(b, r.Response)
	b = binenc.AppendString(b, r.Reason)
	b = binenc.AppendString(b, r.NewServer)
	b = binenc.AppendBool(b, r.Terminated)
	b = binenc.AppendString(b, r.State)
	if r.Spec == nil {
		return binenc.AppendBytes(b, nil)
	}
	return wire.AppendFramed(b, r.Spec)
}

// DecodeWire strictly decodes the record from its binenc encoding.
func (r *IntentRecord) DecodeWire(data []byte) error {
	rd := binenc.NewReader(data)
	rd.Header(ledger.TagIntentRecord)
	*r = IntentRecord{}
	r.Phase = rd.String()
	r.Op = rd.String()
	r.ID = rd.String()
	r.OK = rd.Bool()
	r.Owner = rd.String()
	r.Image = rd.String()
	r.Flavor = rd.String()
	r.Workload = rd.String()
	r.Props = readStrings(&rd)
	r.Allowlist = readStrings(&rd)
	r.MinShare = math.Float64frombits(rd.Uint64())
	r.Pin = int(int64(rd.Uint64()))
	r.ReqServer = rd.String()
	r.Server = rd.String()
	r.Response = rd.String()
	r.Reason = rd.String()
	r.NewServer = rd.String()
	r.Terminated = rd.Bool()
	r.State = rd.String()
	if spec := rd.BytesView(); spec != nil {
		r.Spec = new(server.LaunchSpec)
		if err := r.Spec.DecodeWire(spec); err != nil {
			rd.Fail(err)
		}
	}
	return ledger.Finish(&rd, "IntentRecord")
}

// intentID allocates the next intent identifier.
func (c *Controller) intentID() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextIntent++
	return fmt.Sprintf("in-%06d", c.nextIntent)
}

// intentBegin appends the begin half of a two-phase intent *before* the
// operation acts, so a crash between action and completion leaves a torn
// intent recovery can finish. It returns the intent id ("" without a
// ledger — recovery is then unsupported, and nothing is recorded).
func (c *Controller) intentBegin(vid string, prop properties.Property, ir IntentRecord) string {
	if c.cfg.Ledger == nil {
		return ""
	}
	ir.Phase = "begin"
	ir.ID = c.intentID()
	record(c, ledger.KindIntent, vid, prop, "", ir)
	return ir.ID
}

// intentEnd appends the end half, marking the intent complete.
func (c *Controller) intentEnd(vid string, ir IntentRecord) {
	if c.cfg.Ledger == nil || ir.ID == "" {
		return
	}
	ir.Phase = "end"
	record(c, ledger.KindIntent, vid, "", "", ir)
}

// stateIntent appends a completed lifecycle transition (a customer-driven
// suspend outside the remediation flow) so replay folds it.
func (c *Controller) stateIntent(vid, state string) {
	if c.cfg.Ledger == nil {
		return
	}
	record(c, ledger.KindIntent, vid, "", "", IntentRecord{
		Phase: "end", Op: "state", ID: c.intentID(), OK: true, State: state,
	})
}

// --- conditions ---

// The condition types the controller maintains per VM.
const (
	// condPlaced: the VM is spawned on a cloud server with capacity
	// reserved (observed placement matches desired).
	condPlaced = "Placed"
	// condAttested: the most recent appraisal exchange completed and its
	// signed report verified (False on verification failure, Unknown when
	// the attestation infrastructure is unreachable and a stale verdict
	// is being served).
	condAttested = "Attested"
	// condHealthy: the latest verified verdict found the property healthy.
	condHealthy = "Healthy"
	// condRemediating: a policy response (terminate / suspend / migrate)
	// has been declared and is not yet complete.
	condRemediating = "Remediating"
	// condTerminating: the teardown finalizer is set; True until every
	// external resource (host spawn, appraisal registration, capacity
	// reservation) is released.
	condTerminating = "Terminating"
)

// A condition's tri-state status, in the Kubernetes convention.
const (
	statusTrue    = "True"
	statusFalse   = "False"
	statusUnknown = "Unknown"
)

// setCond updates (or adds) the condition of type t on a VM record under
// the controller lock. Reason and message always take the latest values;
// At moves to now only when the status changes, so "how long has this VM
// been unhealthy" is answerable from the condition alone.
func (c *Controller) setCond(rec *vmRecord, t, s, reason, msg string) {
	now := c.cfg.Clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range rec.Conditions {
		if cond := &rec.Conditions[i]; cond.Type == t {
			if cond.Status != s {
				cond.At = now
			}
			cond.Status, cond.Reason, cond.Message = s, reason, msg
			return
		}
	}
	rec.Conditions = append(rec.Conditions, wire.Condition{Type: t, Status: s, Reason: reason, Message: msg, At: now})
}

// VMStatus reports a VM's desired/observed state join: lifecycle state,
// placement, the teardown finalizer and the full condition set.
func (c *Controller) VMStatus(vid string) (wire.VMStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.vms[vid]
	if !ok {
		return wire.VMStatus{}, fmt.Errorf("controller: no such VM %q", vid)
	}
	return wire.VMStatus{
		Vid:        rec.Vid,
		Owner:      rec.Owner,
		Server:     rec.Server,
		State:      rec.State,
		Deleted:    rec.Deleted,
		Finalized:  rec.Finalized,
		Conditions: append([]wire.Condition(nil), rec.Conditions...),
	}, nil
}

// --- the reconcile loop ---

// ReconcileNow drives the loop until the ready list drains (or
// maxPassesPerDrain passes have run), returning the number of passes run.
// Each pass is per-VM serialized, and a VM re-added mid-pass reruns. The
// loop runs no goroutines of its own: callers must hold the testbed's
// serialization; the nova api handlers and RunFor both do.
func (c *Controller) ReconcileNow() int {
	q := c.queue
	q.promote()
	n := 0
	for ; n < maxPassesPerDrain; n++ {
		vid, ok := q.get()
		if !ok {
			break
		}
		c.reconcilePass(vid)
		// A pass may have advanced the virtual clock past more deadlines.
		q.promote()
	}
	ready, _ := q.lens()
	q.depth.Observe(int64(ready))
	return n
}

// reconcilePass runs one pass for vid and applies its requeue decision:
// backoff after a failure, the pass's own schedule after a success.
func (c *Controller) reconcilePass(vid string) {
	q := c.queue
	sp := c.tracer.Start(obs.SpanContext{}, "reconcile")
	sp.SetVM(vid, "")
	start := c.cfg.Clock.Now()
	after, err := c.reconcileVM(vid)
	q.passLatency.Observe(c.cfg.Clock.Now() - start)
	q.passes.Inc()
	q.done(vid)
	if err != nil {
		q.passErrors.Inc()
		q.requeues.Inc()
		q.retry(vid)
		sp.EndErr(err)
		return
	}
	q.forget(vid)
	if after > 0 {
		q.requeuesAfter.Inc()
		q.addAfter(vid, after)
		sp.End("requeue-after")
		return
	}
	sp.End("")
}

// NextReconcileDue reports the earliest virtual time a delayed requeue
// (backoff retry or periodic re-attestation) becomes ready.
func (c *Controller) NextReconcileDue() (time.Duration, bool) { return c.queue.nextDue() }

// ReconcilePending reports whether any VM is ready or waiting on a timer.
func (c *Controller) ReconcilePending() bool {
	ready, delayed := c.queue.lens()
	return ready > 0 || delayed > 0
}

// reconcileVM converges a single VM toward its declared desired state. It
// is idempotent and per-VM serialized by the queue. A positive
// requeueAfter schedules the VM's next pass (periodic re-attestation).
func (c *Controller) reconcileVM(vid string) (requeueAfter time.Duration, err error) {
	c.mu.Lock()
	rec, ok := c.vms[vid]
	var pending *pendingRemediation
	var deleted, finalized bool
	if ok {
		pending = rec.Pending
		deleted, finalized = rec.Deleted, rec.Finalized
	}
	c.mu.Unlock()
	if !ok {
		return 0, nil // nothing desired; converged by absence
	}

	// 1. Declared remediation: converge the policy response. This runs
	// before the teardown finalizer so a remediation interrupted mid-
	// termination still completes its event and closes its intent.
	if pending != nil {
		if err := c.executeRemediation(rec, pending); err != nil {
			c.mu.Lock()
			rec.lastErr = err
			c.mu.Unlock()
			return 0, err
		}
		c.mu.Lock()
		deleted, finalized = rec.Deleted, rec.Finalized
		c.mu.Unlock()
	}

	// 2. Teardown finalizer: the desired state is "gone"; keep finishing
	// until every external resource is released.
	if deleted {
		if finalized {
			return 0, nil
		}
		err := c.finalizeTeardown(rec)
		c.mu.Lock()
		rec.lastErr = err
		c.mu.Unlock()
		return 0, err
	}

	// 3. Periodic re-attestation: the explicit requeue-after schedule.
	if c.cfg.ReattestEvery > 0 {
		c.mu.Lock()
		state := rec.State
		next := rec.nextReattest
		c.mu.Unlock()
		if state == "active" {
			now := c.cfg.Clock.Now()
			if next == 0 {
				// Freshly placed: the launch pipeline just attested it.
				next = now + c.cfg.ReattestEvery
			} else if now >= next {
				c.reattest(rec)
				now = c.cfg.Clock.Now()
				next = now + c.cfg.ReattestEvery
			}
			c.mu.Lock()
			rec.nextReattest = next
			state = rec.State
			c.mu.Unlock()
			if state == "active" {
				return next - now, nil
			}
		}
	}
	return 0, nil
}

// finalizeTeardown finishes a declared teardown: release the capacity
// reservation (once per process lifetime), evict the guest, and close the
// terminate intent. Each step is idempotent, so a pass interrupted by a
// transport failure (or a crash) is simply resumed by the next one.
func (c *Controller) finalizeTeardown(rec *vmRecord) error {
	c.mu.Lock()
	vid, srv, flavor := rec.Vid, rec.Server, rec.Flavor
	released, migratedOut := rec.Released, rec.MigratedOut
	intentID := rec.terminateIntent
	c.mu.Unlock()

	if !released {
		if !migratedOut { // a half-migrated VM holds no reservation
			c.release(srv, flavor)
		}
		c.mu.Lock()
		rec.Released = true
		c.mu.Unlock()
	}
	if err := c.failpoint("mid-teardown"); err != nil {
		return err
	}
	if migratedOut {
		c.forgetVM(vid) // on no host: only the appraisal references are left
	} else if err := c.evict(vid, srv); err != nil {
		// Transport failure: the finalizer retries on the next pass
		// (half-finished teardowns always finish).
		return err
	}
	c.intentEnd(vid, IntentRecord{Op: "terminate", ID: intentID, OK: true})
	c.mu.Lock()
	rec.Finalized = true
	c.mu.Unlock()
	c.setCond(rec, condTerminating, statusTrue, "Finalized", "teardown complete")
	return nil
}

// RemediationRecord is the payload of a ledger.KindRemediation entry: an
// executed policy response, or a resume (Response "resume" alone).
type RemediationRecord struct {
	Response   string
	Reason     string
	Backend    string
	NewServer  string
	Terminated bool
	Intent     string
}

// AppendWire appends the record's binenc encoding to b.
func (r RemediationRecord) AppendWire(b []byte) []byte {
	b = binenc.AppendHeader(b, ledger.TagRemediationRecord)
	b = binenc.AppendString(b, r.Response)
	b = binenc.AppendString(b, r.Reason)
	b = binenc.AppendString(b, r.Backend)
	b = binenc.AppendString(b, r.NewServer)
	b = binenc.AppendBool(b, r.Terminated)
	return binenc.AppendString(b, r.Intent)
}

// DecodeWire strictly decodes the record from its binenc encoding.
func (r *RemediationRecord) DecodeWire(data []byte) error {
	rd := binenc.NewReader(data)
	rd.Header(ledger.TagRemediationRecord)
	*r = RemediationRecord{}
	r.Response = rd.String()
	r.Reason = rd.String()
	r.Backend = rd.String()
	r.NewServer = rd.String()
	r.Terminated = rd.Bool()
	r.Intent = rd.String()
	return ledger.Finish(&rd, "RemediationRecord")
}

// maxMigrateAttempts bounds migrate retries before the loop falls back to
// termination for safety (paper §5.3): a VM that cannot be moved off a
// failing platform must not keep running on it indefinitely.
const maxMigrateAttempts = 3

// executeRemediation converges one declared policy response. A transport
// failure returns an error so the loop retries with backoff; completion
// appends the event, records the evidence, closes the intent and clears
// the pending declaration.
func (c *Controller) executeRemediation(rec *vmRecord, p *pendingRemediation) error {
	c.mu.Lock()
	vid := rec.Vid
	state := rec.State
	flavor := rec.Flavor
	srv := rec.Server
	deleted := rec.Deleted
	c.mu.Unlock()

	if p.IntentID == "" {
		p.IntentID = c.intentBegin(vid, p.Prop, IntentRecord{
			Op: "remediate", Response: string(p.Response), Reason: p.Reason,
		})
	}
	c.setCond(rec, condRemediating, statusTrue, string(p.Response), p.Reason)
	if err := c.failpoint("mid-remediation"); err != nil {
		return err
	}

	ev := ResponseEvent{Vid: vid, Prop: p.Prop, Response: p.Response, Reason: p.Reason, At: c.cfg.Clock.Now()}
	var opErr error
	switch p.Response {
	case Terminate:
		if err := c.remediationTerminate(rec); err != nil {
			return err
		}
		ev.Terminated = true
		ev.Duration = c.cfg.Latency.Termination(flavor)
	case Suspend:
		if state != "suspended" { // already converged otherwise
			if err := c.SuspendVM(vid); err != nil {
				return err
			}
		}
		ev.Duration = c.cfg.Latency.Suspension(flavor)
		c.mu.Lock()
		rec.SuspendedFor = p.Prop
		c.mu.Unlock()
	case Migrate:
		if deleted {
			// A previous pass already fell back to termination; finish it.
			if err := c.remediationTerminate(rec); err != nil {
				return err
			}
			ev.Terminated = true
			ev.Duration = c.cfg.Latency.Termination(flavor)
			break
		}
		var dest string
		dest, opErr = c.MigrateVM(vid)
		ev.NewServer = dest
		ev.Duration = c.cfg.Latency.Migration(flavor)
		if opErr != nil {
			if errors.Is(opErr, ErrCrash) {
				return opErr
			}
			p.Attempts++
			noDest := strings.Contains(opErr.Error(), "no qualified destination")
			if !noDest && p.Attempts < maxMigrateAttempts {
				// Transient failure mid-migration: leave the remediation
				// pending; the next pass resumes exactly where the
				// migration stopped (MigratedOut + captured spec).
				c.setCond(rec, condRemediating, statusTrue, string(p.Response),
					fmt.Sprintf("retrying: %v", opErr))
				return opErr
			}
			// No destination exists (or retries are exhausted): terminate
			// for safety (paper §5.3).
			if err := c.remediationTerminate(rec); err != nil {
				return err
			}
			ev.Terminated = true
		}
	}

	c.cfg.Clock.Advance(ev.Duration)
	c.appendEvent(ev)
	c.mu.Lock()
	rec.Pending = nil
	rec.lastEvent = &ev
	rec.lastErr = opErr
	c.mu.Unlock()
	c.setCond(rec, condRemediating, statusFalse, "Completed", string(p.Response))
	backendSrv := srv
	if ev.NewServer != "" {
		backendSrv = ev.NewServer
	}
	record(c, ledger.KindRemediation, vid, p.Prop, "",
		RemediationRecord{string(p.Response), p.Reason, c.serverBackend(backendSrv), ev.NewServer, ev.Terminated, p.IntentID})
	c.intentEnd(vid, IntentRecord{
		Op: "remediate", ID: p.IntentID, OK: opErr == nil,
		Response: string(p.Response), Reason: p.Reason,
		NewServer: ev.NewServer, Terminated: ev.Terminated,
	})
	return nil
}

// remediationTerminate declares and finalizes a termination as part of a
// remediation. Unlike the customer-facing TerminateVM it tolerates a VM
// already terminated (idempotent re-execution after a crash).
func (c *Controller) remediationTerminate(rec *vmRecord) error {
	c.mu.Lock()
	rec.State = "terminated"
	rec.Deleted = true
	alreadyFinal := rec.Finalized
	c.mu.Unlock()
	c.setCond(rec, condTerminating, statusTrue, "Remediation", "terminated by policy response")
	if alreadyFinal {
		return nil
	}
	return c.finalizeTeardown(rec)
}

// reattest runs the loop-driven periodic re-attestation of every
// provisioned property on one VM. Infrastructure failures degrade (the
// Attested condition goes Unknown) and never remediate — the degradation
// semantics the one-shot Attest path already guarantees, enforced inside
// the loop as well.
func (c *Controller) reattest(rec *vmRecord) {
	c.mu.Lock()
	vid := rec.Vid
	srv := rec.Server
	props := append([]properties.Property(nil), rec.Props...)
	c.mu.Unlock()
	if len(props) == 0 {
		props = []properties.Property{properties.RuntimeIntegrity}
	}
	sp := c.tracer.Start(obs.SpanContext{}, "controller.reattest")
	sp.SetVM(vid, "")
	defer sp.End("")
	for _, p := range props {
		rep, err := c.verifiedAppraisal(sp, vid, srv, p)
		if err != nil {
			var rerr *rpc.RemoteError
			switch {
			case isBadReport(err):
				c.setCond(rec, condAttested, statusFalse, "BadReport", err.Error())
			case errors.As(err, &rerr):
				c.setCond(rec, condAttested, statusFalse, "AppraisalRefused", rerr.Msg)
			default:
				// Unreachable infrastructure: degrade, never remediate.
				c.metrics.Counter("controller/reattest-degraded").Inc()
				c.setCond(rec, condAttested, statusUnknown, "InfraUnreachable", err.Error())
			}
			continue
		}
		c.storeLastGood(vid, p, rep.Verdict)
		c.setCond(rec, condAttested, statusTrue, "Verified", string(p))
		c.observeVerdict(rec, p, rep.Verdict)
		if !rep.Verdict.Healthy && !rep.Verdict.Unattestable {
			c.declareRemediation(rec, p, rep.Verdict.Reason)
			c.mu.Lock()
			pending := rec.Pending
			c.mu.Unlock()
			if pending != nil {
				// Already inside this VM's pass: converge now rather than
				// waiting a requeue. A transport failure leaves the
				// declaration pending for the loop's backoff retry.
				_ = c.executeRemediation(rec, pending)
			}
			return
		}
	}
}

// observeVerdict folds a verified verdict into the Healthy condition.
func (c *Controller) observeVerdict(rec *vmRecord, p properties.Property, v properties.Verdict) {
	switch {
	case v.Unattestable:
		c.setCond(rec, condHealthy, statusUnknown, "Unattestable", v.Reason)
	case v.Healthy:
		c.setCond(rec, condHealthy, statusTrue, "Verified", string(p))
	default:
		c.setCond(rec, condHealthy, statusFalse, string(p), v.Reason)
	}
}

// declareRemediation sets the desired policy response on a VM (level: the
// loop converges it) unless one is already pending.
func (c *Controller) declareRemediation(rec *vmRecord, p properties.Property, reason string) {
	kind := c.policyFor(p)
	c.mu.Lock()
	if rec.Pending == nil && rec.State != "terminated" {
		rec.Pending = &pendingRemediation{Prop: p, Reason: reason, Response: kind}
	}
	c.mu.Unlock()
}

// policyFor resolves the configured response for a property.
func (c *Controller) policyFor(p properties.Property) ResponseKind {
	c.mu.Lock()
	defer c.mu.Unlock()
	if k, ok := c.policy[p]; ok && k != "" {
		return k
	}
	return Terminate
}

// isNoVM reports a remote "no VM" refusal from a cloud server — the
// converged outcome of a terminate that already happened (e.g. re-executed
// after a crash), not a failure.
func isNoVM(err error) bool {
	var rerr *rpc.RemoteError
	return errors.As(err, &rerr) && strings.Contains(rerr.Msg, "no VM")
}
