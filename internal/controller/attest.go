package controller

import (
	"context"
	"errors"
	"fmt"

	"cloudmonatt/internal/attestsrv"
	"cloudmonatt/internal/binenc"
	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/ledger"
	"cloudmonatt/internal/obs"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/reconcile"
	"cloudmonatt/internal/rpc"
	"cloudmonatt/internal/server"
	"cloudmonatt/internal/wire"
)

// vmFor validates that the VM exists and the property was provisioned.
func (c *Controller) vmFor(vid string, p properties.Property) (*vmRecord, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.vms[vid]
	if !ok {
		return nil, fmt.Errorf("controller: no such VM %q", vid)
	}
	if rec.State == "terminated" {
		return nil, fmt.Errorf("controller: VM %q is terminated", vid)
	}
	if p == properties.StartupIntegrity {
		return rec, nil // always provisioned: every launch is attested
	}
	for _, q := range rec.Props {
		if q == p {
			return rec, nil
		}
	}
	return nil, fmt.Errorf("controller: VM %q was not provisioned with property %q", vid, p)
}

// Attest serves the one-time attestation APIs of Table 1
// (startup_attest_current and runtime_attest_current): it forwards the
// request to the Attestation Server with a fresh N2 (regenerated per retry
// attempt), validates the signed report, triggers the Response Module on
// failure, and re-signs the result for the customer with SKc and the
// customer's N1.
//
// When the attestation infrastructure is unreachable — retries exhausted or
// the breaker open, not a handler rejection — Attest degrades gracefully:
// it serves the last-known-good verdict as a stale report carrying its age,
// and never escalates an infrastructure failure to remediation.
func (c *Controller) Attest(req wire.AttestRequest) (*wire.CustomerReport, error) {
	return c.AttestTraced(obs.SpanContext{}, req)
}

// AttestTraced is Attest recording its work as a "controller.attest" span
// under parent (the nova api's root span), with each RPC attempt to the
// Attestation Server nesting beneath it. Degraded stale-report serves are
// annotated on the span.
func (c *Controller) AttestTraced(parent obs.SpanContext, req wire.AttestRequest) (*wire.CustomerReport, error) {
	if !c.replay.Check(req.N1) {
		return nil, fmt.Errorf("controller: replayed customer nonce")
	}
	rec, err := c.vmFor(req.Vid, req.Prop)
	if err != nil {
		return nil, err
	}
	sp := c.tracer.Start(parent, "controller.attest")
	sp.SetVM(req.Vid, string(req.Prop))
	rep, err := c.verifiedAppraisal(sp, req.Vid, rec.Server, req.Prop)
	if err != nil {
		if isBadReport(err) {
			sp.EndErr(err)
			return nil, fmt.Errorf("controller: rejecting attestation report: %w", err)
		}
		// A shard that answered and refused is a protocol failure, not an
		// availability problem — only unreachable infrastructure degrades.
		var rerr *rpc.RemoteError
		if !errors.As(err, &rerr) {
			if r := c.staleReport(req.Vid, req.Prop, req.N1, sp.Context().Trace, err); r != nil {
				sp.Annotate("degraded", "stale-report")
				sp.End("degraded")
				return r, nil
			}
		}
		sp.EndErr(err)
		return nil, fmt.Errorf("controller: appraisal failed: %w", err)
	}
	c.storeLastGood(req.Vid, req.Prop, rep.Verdict)
	// Unattestable (V_fail) is a capability statement about the trust
	// backend, not a compromise finding: remediation would punish a healthy
	// VM, so the Response Module is never triggered for it.
	if !rep.Verdict.Healthy && !rep.Verdict.Unattestable {
		sp.Annotate("respond", rep.Verdict.Reason)
		c.Respond(req.Vid, req.Prop, rep.Verdict.Reason)
	}
	if rep.Verdict.Healthy {
		sp.End("")
	} else {
		sp.End("unhealthy")
	}
	return wire.BuildCustomerReport(c.cfg.Identity, req.Vid, req.Prop, rep.Verdict, req.N1), nil
}

// StaleServeRecord is the payload of a stale serve's ledger.KindDegraded
// entry.
type StaleServeRecord struct {
	AgeNS int64
	Cause string
}

// AppendWire appends the record's binenc encoding to b.
func (r StaleServeRecord) AppendWire(b []byte) []byte {
	b = binenc.AppendHeader(b, ledger.TagStaleServeRecord)
	b = binenc.AppendUint64(b, uint64(r.AgeNS))
	return binenc.AppendString(b, r.Cause)
}

// DecodeWire strictly decodes the record from its binenc encoding.
func (r *StaleServeRecord) DecodeWire(data []byte) error {
	rd := binenc.NewReader(data)
	rd.Header(ledger.TagStaleServeRecord)
	*r = StaleServeRecord{}
	r.AgeNS = int64(rd.Uint64())
	r.Cause = rd.String()
	return ledger.Finish(&rd, "StaleServeRecord")
}

// staleReport serves the cached last-known-good verdict as a stale report
// when the attestation infrastructure is unavailable, or nil when nothing
// is cached. A verdict of any age is served: the report carries its age, so
// the customer decides what is too old. The degradation is recorded in
// metrics and the evidence ledger.
func (c *Controller) staleReport(vid string, p properties.Property, n1 cryptoutil.Nonce, trace string, cause error) *wire.CustomerReport {
	lg, ok := c.lastGoodFor(vid, p)
	if !ok {
		return nil
	}
	age := c.cfg.Clock.Now() - lg.at
	c.metrics.Counter("controller/degraded-stale-reports").Inc()
	record(c, ledger.KindDegraded, vid, p, trace, StaleServeRecord{int64(age), cause.Error()})
	return wire.BuildStaleCustomerReport(c.cfg.Identity, vid, p, lg.verdict, n1, age)
}

// StartPeriodic serves runtime_attest_periodic.
func (c *Controller) StartPeriodic(req wire.PeriodicRequest) error {
	rec, err := c.vmFor(req.Vid, req.Prop)
	if err != nil {
		return err
	}
	_, err = c.callVM(req.Vid, func(rt attestRoute) error {
		return rt.client.CallCtx(context.Background(), attestsrv.MethodPeriodicStart, attestsrv.PeriodicControl{
			Vid: req.Vid, ServerID: rec.Server, Prop: req.Prop, Freq: req.Freq, Random: req.Random,
		}, nil)
	})
	return err
}

// PeriodicLossRecord is the payload of the ledger.KindDegraded entry a
// drain leaves when its stream lost reports or ticks.
type PeriodicLossRecord struct {
	Dropped uint64
	Skipped uint64
}

// AppendWire appends the record's binenc encoding to b.
func (r PeriodicLossRecord) AppendWire(b []byte) []byte {
	b = binenc.AppendHeader(b, ledger.TagPeriodicLossRecord)
	b = binenc.AppendUint64(b, r.Dropped)
	return binenc.AppendUint64(b, r.Skipped)
}

// DecodeWire strictly decodes the record from its binenc encoding.
func (r *PeriodicLossRecord) DecodeWire(data []byte) error {
	rd := binenc.NewReader(data)
	rd.Header(ledger.TagPeriodicLossRecord)
	*r = PeriodicLossRecord{}
	r.Dropped = rd.Uint64()
	r.Skipped = rd.Uint64()
	return ledger.Finish(&rd, "PeriodicLossRecord")
}

// DrainPeriodic serves fetch_attest_periodic (the stream stays armed) and
// stop_attest_periodic (stop disarms it). The owning shard answers with one
// batch signed under the fresh N2 sent to it; once that signature checks
// under the answering shard's key, the engine's loss accounting is
// surfaced — reports the bounded buffer evicted and ticks shed under
// overload are counted in the controller's metrics and, when any occurred,
// recorded as evidence — and the verdicts go to the customer re-signed as
// one batch under its N1.
func (c *Controller) DrainPeriodic(req wire.StopPeriodicRequest, stop bool) (*wire.CustomerBatch, error) {
	if _, err := c.vmFor(req.Vid, req.Prop); err != nil {
		return nil, err
	}
	method := attestsrv.MethodPeriodicFetch
	if stop {
		method = attestsrv.MethodPeriodicStop
	}
	var batch attestsrv.PeriodicBatch
	var n2 cryptoutil.Nonce
	// Drains are destructive server-side; the idempotency key makes a
	// retried drain replay the recorded batch, signed under the same N2,
	// instead of losing it. A redirect to another shard is a new exchange
	// and draws a new N2.
	rt, err := c.callVM(req.Vid, func(rt attestRoute) error {
		n, err := cryptoutil.NewNonce(c.cfg.Rand)
		if err != nil {
			return err
		}
		n2 = n
		return rt.client.CallIdem(context.Background(), method, rpc.NewIdemKey(),
			attestsrv.PeriodicControl{Vid: req.Vid, Prop: req.Prop, N2: n}, &batch)
	})
	if err != nil {
		return nil, err
	}
	if err := attestsrv.VerifyPeriodicBatch(&batch, rt.key, req.Vid, req.Prop, n2); err != nil {
		return nil, fmt.Errorf("controller: rejecting periodic batch: %w", err)
	}
	if batch.Dropped > 0 || batch.Skipped > 0 {
		c.metrics.Counter("controller/periodic-dropped-reports").Add(int64(batch.Dropped))
		c.metrics.Counter("controller/periodic-skipped-ticks").Add(int64(batch.Skipped))
		record(c, ledger.KindDegraded, req.Vid, req.Prop, req.Trace, PeriodicLossRecord{batch.Dropped, batch.Skipped})
	}
	return c.repackage(req.Vid, req.Prop, req.N1, batch.Entries), nil
}

// repackage re-signs a verified drain for the customer as one batch bound
// to its N1. A failed verdict triggers the Response Module (once per
// batch).
func (c *Controller) repackage(vid string, p properties.Property, n1 cryptoutil.Nonce, entries []attestsrv.PeriodicEntry) *wire.CustomerBatch {
	verdicts := make([]properties.Verdict, len(entries))
	responded := false
	for i, e := range entries {
		verdicts[i] = e.Verdict
		if !e.Verdict.Healthy && !e.Verdict.Unattestable && !responded {
			c.storeLastGood(vid, p, e.Verdict)
			c.Respond(vid, p, e.Verdict.Reason)
			responded = true
		}
	}
	if len(verdicts) > 0 {
		c.storeLastGood(vid, p, verdicts[len(verdicts)-1])
	}
	return wire.BuildCustomerBatch(c.cfg.Identity, vid, p, n1, verdicts)
}

// --- Response Module (paper §5.2) ---

// Respond declares the policy response for a failed property on a VM and
// drives the reconcile loop to converge it, returning the executed event
// with its modeled reaction time (Fig. 11). If the response cannot
// complete (e.g. the host is unreachable), the declaration stays pending
// and the loop retries it with backoff; the error reports the first
// failure.
func (c *Controller) Respond(vid string, p properties.Property, reason string) (ResponseEvent, error) {
	c.mu.Lock()
	rec, ok := c.vms[vid]
	c.mu.Unlock()
	if !ok {
		return ResponseEvent{}, fmt.Errorf("controller: no such VM %q", vid)
	}
	c.declareRemediation(rec, p, reason)
	c.mu.Lock()
	declared := rec.Pending != nil
	rec.lastEvent, rec.lastErr = nil, nil
	c.mu.Unlock()
	if !declared {
		return ResponseEvent{}, fmt.Errorf("controller: no active VM %q", vid)
	}
	c.loop.Enqueue(vid)
	c.loop.ProcessReady()
	c.mu.Lock()
	ev, err := rec.lastEvent, rec.lastErr
	stillPending := rec.Pending != nil
	c.mu.Unlock()
	if ev == nil {
		if err == nil && stillPending {
			err = fmt.Errorf("controller: response %s for %s did not converge", c.policyFor(p), vid)
		}
		return ResponseEvent{Vid: vid, Prop: p, Response: c.policyFor(p), Reason: reason}, err
	}
	return *ev, err
}

// TerminateVM shuts a VM down (#1 Termination): it declares the teardown
// (the desired state becomes "gone") and drives the finalizer through the
// reconcile loop. On a transport failure the declaration survives — the
// loop keeps finishing the teardown — and the first error is returned.
func (c *Controller) TerminateVM(vid string) error {
	c.mu.Lock()
	rec, ok := c.vms[vid]
	if !ok || rec.State == "terminated" {
		c.mu.Unlock()
		return fmt.Errorf("controller: no active VM %q", vid)
	}
	rec.State = "terminated"
	rec.Deleted = true
	rec.lastErr = nil
	c.mu.Unlock()
	id := c.intentBegin(vid, "", IntentRecord{Op: "terminate"})
	c.mu.Lock()
	rec.terminateIntent = id
	c.mu.Unlock()
	c.setCond(rec, reconcile.CondTerminating, reconcile.True, "Requested", "teardown declared")
	c.loop.Enqueue(vid)
	c.loop.ProcessReady()
	c.mu.Lock()
	defer c.mu.Unlock()
	if !rec.Finalized {
		return rec.lastErr
	}
	return nil
}

// SuspendVM pauses a VM (#2 Suspension).
func (c *Controller) SuspendVM(vid string) error {
	return c.setRunState(vid, "active", "suspended")
}

// ResumeVM continues a suspended VM after the platform re-attests healthy.
func (c *Controller) ResumeVM(vid string) error {
	if err := c.setRunState(vid, "suspended", "active"); err != nil {
		return err
	}
	record(c, ledger.KindRemediation, vid, "", "", RemediationRecord{Response: "resume"})
	return nil
}

// setRunState is the one host-state transition: it pauses (to "suspended")
// or continues (to "active") the guest on its host, and only once the host
// has acknowledged does it flip the record and append the state intent a
// restarted controller replays. A transition the host never saw changes
// nothing: a failed suspension stays a pending remediation over an "active"
// VM, never a recorded one over a compromised guest that is still running.
func (c *Controller) setRunState(vid, from, to string) error {
	c.mu.Lock()
	rec, ok := c.vms[vid]
	if !ok || rec.State != from {
		c.mu.Unlock()
		return fmt.Errorf("controller: VM %q is not %s", vid, from)
	}
	srv := rec.Server
	c.mu.Unlock()
	mgmt, err := c.mgmtClient(srv)
	if err != nil {
		return err
	}
	if to == "suspended" {
		err = mgmt.CallCtx(context.Background(), server.MethodSuspend, wire.VidRequest{Vid: vid}, nil)
	} else {
		err = mgmt.CallCtx(context.Background(), server.MethodResume, wire.VidRequest{Vid: vid}, nil)
	}
	if err != nil {
		return err
	}
	c.mu.Lock()
	if rec.State == from { // a teardown declared meanwhile wins
		rec.State = to
	}
	c.mu.Unlock()
	c.stateIntent(vid, to)
	return nil
}

// RecheckAndResume implements the second half of the Suspension response
// (paper §5.2): the controller initiates further checking and resumes the
// VM only if the attestation shows security health has returned. Because
// runtime properties need the VM executing to be measured, the flow is
// resume → re-attest the property that triggered the suspension →
// re-suspend on a still-failing verdict. It returns the fresh verdict and
// whether the VM is now active.
func (c *Controller) RecheckAndResume(vid string) (properties.Verdict, bool, error) {
	c.mu.Lock()
	rec, ok := c.vms[vid]
	if !ok || rec.State != "suspended" {
		c.mu.Unlock()
		return properties.Verdict{}, false, fmt.Errorf("controller: VM %q is not suspended", vid)
	}
	prop := rec.SuspendedFor
	srv := rec.Server
	c.mu.Unlock()
	if prop == "" {
		prop = properties.RuntimeIntegrity
	}
	if err := c.ResumeVM(vid); err != nil {
		return properties.Verdict{}, false, err
	}
	rep, err := c.verifiedAppraisal(nil, vid, srv, prop)
	if err != nil {
		// Could not re-check: fail safe, back to suspended.
		c.SuspendVM(vid)
		if isBadReport(err) {
			return properties.Verdict{}, false, fmt.Errorf("controller: rejecting recheck report: %w", err)
		}
		return properties.Verdict{}, false, fmt.Errorf("controller: recheck failed: %w", err)
	}
	if !rep.Verdict.Healthy {
		if err := c.SuspendVM(vid); err != nil {
			return rep.Verdict, false, err
		}
		return rep.Verdict, false, nil
	}
	c.mu.Lock()
	rec.SuspendedFor = ""
	c.mu.Unlock()
	return rep.Verdict, true, nil
}

// MigrateVM moves a VM to another qualified server (#3 Migration) and
// returns the destination. The migration is a convergent two-step: once
// the VM has left its source (migrate-out, recorded with the captured
// spec), a failed relaunch can be retried — by the caller or by the
// reconcile loop after a crash — without repeating the migrate-out.
func (c *Controller) MigrateVM(vid string) (string, error) {
	c.mu.Lock()
	rec, ok := c.vms[vid]
	if !ok || rec.State == "terminated" {
		c.mu.Unlock()
		return "", fmt.Errorf("controller: no active VM %q", vid)
	}
	src, flavor, props := rec.Server, rec.Flavor, rec.Props
	migratedOut := rec.MigratedOut
	var spec server.LaunchSpec
	if migratedOut && rec.MigrateSpec != nil {
		spec = *rec.MigrateSpec
	}
	c.mu.Unlock()

	// The ring shards by VM id, so appraisal ownership follows the VM to any
	// host and every qualified server is a candidate.
	cands := c.candidates(flavor, props, "", src)
	if len(cands) == 0 {
		return "", fmt.Errorf("controller: no qualified destination for %s", vid)
	}
	dest := cands[0]

	if !migratedOut {
		srcMgmt, err := c.mgmtClient(src)
		if err != nil {
			return "", err
		}
		// Migrate-out removes the VM from the source host; the key makes a
		// retried call replay the captured spec instead of failing on a VM
		// that is already gone.
		if err := srcMgmt.CallIdem(context.Background(), server.MethodMigrateOut, rpc.NewIdemKey(), wire.VidRequest{Vid: vid}, &spec); err != nil {
			return "", err
		}
		c.release(src, flavor)
		c.mu.Lock()
		rec.MigratedOut = true
		sp := spec
		rec.MigrateSpec = &sp
		c.mu.Unlock()
		// The migrate-out is complete external state: record it so recovery
		// can finish the relaunch from the ledger alone.
		record(c, ledger.KindIntent, vid, "", "", IntentRecord{
			Phase: "end", Op: "migrate-out", ID: c.intentID(), OK: true,
			Server: src, Spec: &sp,
		})
		if err := c.failpoint("mid-migrate"); err != nil {
			return "", err
		}
	}

	if err := c.spawn(dest.Name, spec); err != nil {
		return "", fmt.Errorf("controller: relaunch on %s failed: %w", dest.Name, err)
	}
	c.mu.Lock()
	rec.Server = dest.Name
	rec.MigratedOut = false
	rec.MigrateSpec = nil
	c.mu.Unlock()
	record(c, ledger.KindIntent, vid, "", "", IntentRecord{
		Phase: "end", Op: "migrated", ID: c.intentID(), OK: true, Server: dest.Name,
	})
	c.setCond(rec, reconcile.CondPlaced, reconcile.True, "Migrated", dest.Name)
	// Ongoing periodic monitoring follows the VM to its new host; the owning
	// shard is unchanged (ownership hashes the VM id, not the host).
	c.callVM(vid, func(rt attestRoute) error {
		return rt.client.CallCtx(context.Background(), attestsrv.MethodRebindVM, attestsrv.RebindRequest{Vid: vid, ServerID: dest.Name}, nil)
	})
	return dest.Name, nil
}

// VMServer returns the server currently hosting the VM.
func (c *Controller) VMServer(vid string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.vms[vid]
	if !ok {
		return "", fmt.Errorf("controller: no such VM %q", vid)
	}
	return rec.Server, nil
}

// VMState returns the lifecycle state of the VM.
func (c *Controller) VMState(vid string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.vms[vid]
	if !ok {
		return "", fmt.Errorf("controller: no such VM %q", vid)
	}
	return rec.State, nil
}

// PublicKey returns VKc, the key customers verify reports under.
func (c *Controller) PublicKey() []byte { return c.cfg.Identity.Public() }
