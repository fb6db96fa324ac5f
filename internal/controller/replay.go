package controller

import (
	"fmt"
	"sort"

	"cloudmonatt/internal/image"
	"cloudmonatt/internal/ledger"
	"cloudmonatt/internal/properties"
)

// Recover rebuilds the controller's desired state and in-flight intents
// from the evidence ledger after a crash, then reconciles to convergence.
//
// The fold walks every entry in chain order as the walk verifies it
// (ledger.Walk), and replays the two-phase intents:
//
//   - a completed launch recreates the VM row (desired state from the
//     begin record, placement from the end);
//   - a begin without an end is a torn intent — the crash hit between
//     acting and recording completion — and becomes work: torn launches
//     are cleaned off their candidate hosts, torn remediations are
//     re-declared (idempotently re-executed, never duplicated: completed
//     intents fold as already done), torn teardowns re-enter the
//     finalizer;
//   - migrate-out / migrated / terminate / state completions move the
//     fold the same way the live operations moved the controller.
//
// Degradation evidence (KindDegraded) replays to nothing: an
// infrastructure failure never becomes a remediation, crash or no crash.
// A chain that does not verify, or an intent or remediation entry the
// fold cannot read, is an error naming the entry, and no row is installed:
// folding past it would lose or resurrect the work it records. Capacity is
// reserved only as the rows are installed, so a refused recovery holds
// none.
func (c *Controller) Recover() error {
	if c.cfg.Ledger == nil {
		return fmt.Errorf("controller: recovery requires a ledger")
	}

	launchBegins := make(map[string]IntentRecord)         // vid → open launch
	openPlaces := make(map[string]map[string]string)      // vid → intent id → server
	openRemediate := make(map[string]*pendingRemediation) // vid → torn remediation
	recs := make(map[string]*vmRecord)
	var eventOrder []ResponseEvent
	maxVid, maxIntent := 0, 0

	noteIntent := func(id string) {
		var n int
		if _, err := fmt.Sscanf(id, "in-%d", &n); err == nil && n > maxIntent {
			maxIntent = n
		}
	}
	noteVid := func(vid string) {
		var n int
		if _, err := fmt.Sscanf(vid, "vm-%d", &n); err == nil && n > maxVid {
			maxVid = n
		}
	}
	flavorOf := func(name string) (image.Flavor, bool) {
		f, err := image.FlavorByName(name)
		return f, err == nil
	}
	// foldFinalized folds a completed teardown, however it was declared: the
	// row is gone for good.
	foldFinalized := func(rec *vmRecord) {
		rec.State = "terminated"
		rec.Deleted, rec.Finalized = true, true
		rec.MigratedOut = false
	}

	replayed, err := c.cfg.Ledger.Walk(func(e ledger.Entry) error {
		switch e.Kind {
		case ledger.KindIntent:
			var ir IntentRecord
			if err := e.Decode(&ir); err != nil {
				return err
			}
			noteIntent(ir.ID)
			rec := recs[e.Vid]
			switch {
			case ir.Op == "launch" && ir.Phase == "begin":
				noteVid(e.Vid)
				launchBegins[e.Vid] = ir
			case ir.Op == "launch" && ir.Phase == "end":
				lb, begun := launchBegins[e.Vid]
				delete(launchBegins, e.Vid)
				if !ir.OK || !begun {
					break
				}
				flavor, okF := flavorOf(lb.Flavor)
				if !okF {
					break
				}
				props := make([]properties.Property, len(lb.Props))
				for i, p := range lb.Props {
					props[i] = properties.Property(p)
				}
				recs[e.Vid] = &vmRecord{
					Vid: e.Vid, Owner: lb.Owner, Server: ir.Server,
					ImageName: lb.Image, Flavor: flavor, Props: props,
					Workload: lb.Workload, State: "active",
				}
			case ir.Op == "place" && ir.Phase == "begin":
				if openPlaces[e.Vid] == nil {
					openPlaces[e.Vid] = make(map[string]string)
				}
				openPlaces[e.Vid][ir.ID] = ir.Server
			case ir.Op == "place" && ir.Phase == "end":
				delete(openPlaces[e.Vid], ir.ID)
			case ir.Op == "remediate" && ir.Phase == "begin":
				openRemediate[e.Vid] = &pendingRemediation{
					Prop:     properties.Property(e.Prop),
					Reason:   ir.Reason,
					Response: ResponseKind(ir.Response),
					IntentID: ir.ID,
				}
			case ir.Op == "remediate" && ir.Phase == "end":
				open := openRemediate[e.Vid]
				delete(openRemediate, e.Vid)
				ev := ResponseEvent{
					Vid: e.Vid, Response: ResponseKind(ir.Response),
					Reason: ir.Reason, At: e.At,
					NewServer: ir.NewServer, Terminated: ir.Terminated,
				}
				if open != nil {
					ev.Prop = open.Prop
				}
				eventOrder = append(eventOrder, ev)
				if rec == nil {
					break
				}
				switch {
				case ir.Terminated:
					// The remediation completion is only written after the
					// termination fully finalized.
					foldFinalized(rec)
				case ResponseKind(ir.Response) == Suspend:
					rec.State = "suspended"
					rec.SuspendedFor = ev.Prop
				}
			case ir.Op == "terminate" && ir.Phase == "begin":
				if rec != nil {
					rec.State = "terminated"
					rec.Deleted = true
					rec.terminateIntent = ir.ID
				}
			case ir.Op == "terminate" && ir.Phase == "end":
				if rec != nil {
					foldFinalized(rec)
				}
			case ir.Op == "migrate-out":
				if rec != nil && !rec.MigratedOut {
					rec.MigratedOut = true
					rec.MigrateSpec = ir.Spec
				}
			case ir.Op == "migrated":
				if rec != nil {
					rec.Server = ir.Server
					rec.MigratedOut = false
					rec.MigrateSpec = nil
				}
			case ir.Op == "state":
				if rec != nil && rec.State != "terminated" && ir.State != "" {
					rec.State = ir.State
				}
			}
		case ledger.KindRemediation:
			// ResumeVM leaves a plain remediation record; fold it so a
			// suspended-then-resumed VM recovers as active.
			var p RemediationRecord
			if err := e.Decode(&p); err != nil {
				return err
			}
			if p.Response == "resume" {
				if rec := recs[e.Vid]; rec != nil && rec.State == "suspended" {
					rec.State = "active"
					rec.SuspendedFor = ""
				}
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("controller: ledger replay: %w", err)
	}

	// Torn launches: the crash hit mid-pipeline. Any open place intent may
	// have left a guest (and an appraisal registration) behind on its
	// candidate server — clean both up, best effort; the VM row never
	// materializes, so the customer simply saw the launch fail.
	torn := 0
	sweep := func(vid, srv string) {
		torn++
		// Best effort: the server may never have spawned the guest ("no VM"
		// is the converged outcome) or be gone itself.
		_ = c.evict(vid, srv)
	}
	for vid := range launchBegins {
		for _, srv := range openPlaces[vid] {
			sweep(vid, srv)
		}
		delete(openPlaces, vid)
		c.metrics.Counter("controller/recover-torn-launches").Inc()
	}
	// Torn places under a completed launch cannot happen (a crash kills the
	// whole launch), but clean up defensively if the fold disagrees.
	for vid, places := range openPlaces {
		rec := recs[vid]
		for _, srv := range places {
			if rec != nil && rec.Server == srv {
				continue
			}
			sweep(vid, srv)
		}
	}

	// Install the recovered rows with the capacity each still holds (a
	// finalized VM holds none, nor does a half-migrated one), then turn
	// torn intents into declared work for the reconcile loop.
	c.mu.Lock()
	for vid, rec := range recs {
		c.vms[vid] = rec
		if !rec.Finalized && !rec.MigratedOut {
			c.used[rec.Server] = c.used[rec.Server].Add(rec.Flavor)
		}
	}
	if maxVid > c.nextVid {
		c.nextVid = maxVid
	}
	if maxIntent > c.nextIntent {
		c.nextIntent = maxIntent
	}
	c.mu.Unlock()

	// Survivors are enqueued in vid order, so a restarted controller
	// finishes torn work in one order however the map iterates.
	vids := make([]string, 0, len(recs))
	for vid := range recs {
		vids = append(vids, vid)
	}
	sort.Strings(vids)
	for _, vid := range vids {
		rec := recs[vid]
		c.setCond(rec, condPlaced, statusTrue, "Recovered", rec.Server)
		if p := openRemediate[vid]; p != nil && !rec.Finalized {
			torn++
			rec.Pending = p
			c.metrics.Counter("controller/recover-torn-remediations").Inc()
		}
		if rec.Deleted && !rec.Finalized {
			torn++
		}
		for _, ev := range eventOrder {
			if ev.Vid == vid {
				e := ev
				rec.lastEvent = &e
			}
		}
		if !(rec.Deleted && rec.Finalized) {
			c.queue.add(vid)
		}
	}
	for _, ev := range eventOrder {
		c.appendEvent(ev)
	}
	c.metrics.Counter("controller/recover-replayed-entries").Add(int64(replayed))
	c.metrics.Counter("controller/recover-torn-intents").Add(int64(torn))
	record(c, ledger.KindIntent, "", "", "", IntentRecord{
		Phase: "end", Op: "recover", ID: c.intentID(), OK: true,
	})

	// Converge: finish torn teardowns, re-execute torn remediations,
	// schedule periodic re-attestation for the survivors.
	c.ReconcileNow()
	return nil
}
