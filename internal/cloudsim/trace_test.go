package cloudsim

import (
	"strings"
	"testing"
	"time"

	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/obs"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/rpc"
	"cloudmonatt/internal/wire"
)

// entitiesOf collects the set of entities that recorded spans in the trace.
func entitiesOf(tr obs.Trace) map[string]bool {
	out := make(map[string]bool)
	for _, sp := range tr.Spans {
		out[sp.Entity] = true
	}
	return out
}

// checkNesting asserts every span whose parent landed in the same trace
// stays within the parent's virtual-time bounds.
func checkNesting(t *testing.T, tr obs.Trace) {
	t.Helper()
	byID := make(map[string]obs.Span, len(tr.Spans))
	for _, sp := range tr.Spans {
		byID[sp.ID] = sp
	}
	for _, sp := range tr.Spans {
		if sp.Parent == "" {
			continue
		}
		p, ok := byID[sp.Parent]
		if !ok {
			continue // parent span recorded by an entity outside this store snapshot
		}
		if sp.Start < p.Start || sp.End > p.End {
			t.Errorf("span %s %q [%v,%v] escapes parent %s %q [%v,%v]",
				sp.ID, sp.Name, sp.Start, sp.End, p.ID, p.Name, p.Start, p.End)
		}
	}
}

// coversFourEntities asserts the trace has spans from the customer API, the
// controller, the attestation server and at least one cloud server — the
// full Fig. 3 protocol chain.
func coversFourEntities(t *testing.T, tr obs.Trace) {
	t.Helper()
	ents := entitiesOf(tr)
	for _, want := range []string{"customer-api", "controller", "attest-server"} {
		if !ents[want] {
			t.Errorf("trace %s has no %s span (entities %v)", tr.ID, want, ents)
		}
	}
	var cloud bool
	for e := range ents {
		if strings.HasPrefix(e, "cloud-server-") {
			cloud = true
		}
	}
	if !cloud {
		t.Errorf("trace %s has no cloud-server span (entities %v)", tr.ID, ents)
	}
}

// attestTraces returns the completed one-time attestation traces for vid.
func attestTraces(tb *Testbed, vid string) []obs.Trace {
	var out []obs.Trace
	for _, tr := range tb.Obs.Traces(obs.TraceFilter{Vid: vid, CompleteOnly: true}) {
		if tr.Name == "api:runtime_attest_current" {
			out = append(out, tr)
		}
	}
	return out
}

// TestOneTimeAttestationTraces: every one-time attestation yields exactly
// one complete trace whose spans cover all four entities and nest within
// their parents' virtual-time bounds.
func TestOneTimeAttestationTraces(t *testing.T) {
	tb := newTB(t, Options{Seed: 31})
	cu, err := tb.NewCustomer("alice")
	if err != nil {
		t.Fatal(err)
	}
	res := launch(t, cu, basicLaunch())
	tb.RunFor(2 * time.Second)

	const runs = 3
	for i := 0; i < runs; i++ {
		if _, err := cu.Attest(res.Vid, properties.RuntimeIntegrity); err != nil {
			t.Fatal(err)
		}
	}

	traces := attestTraces(tb, res.Vid)
	if len(traces) != runs {
		t.Fatalf("got %d complete attestation traces, want %d", len(traces), runs)
	}
	seen := make(map[string]bool)
	for _, tr := range traces {
		if seen[tr.ID] {
			t.Fatalf("trace ID %s repeated", tr.ID)
		}
		seen[tr.ID] = true
		if tr.Outcome != "ok" {
			t.Errorf("trace %s outcome %q, want ok", tr.ID, tr.Outcome)
		}
		if tr.Prop != string(properties.RuntimeIntegrity) {
			t.Errorf("trace %s prop %q", tr.ID, tr.Prop)
		}
		coversFourEntities(t, tr)
		checkNesting(t, tr)
	}

	// The launch, too, leaves one complete trace rooted at the customer API.
	var launches int
	for _, tr := range tb.Obs.Traces(obs.TraceFilter{CompleteOnly: true}) {
		if tr.Name == "api:launch_vm" {
			launches++
			checkNesting(t, tr)
		}
	}
	if launches != 1 {
		t.Fatalf("got %d launch traces, want 1", launches)
	}
}

// TestPeriodicAttestationTraces: every periodic tick the engine runs yields
// exactly one complete engine-rooted trace, annotated with the engine
// outcome and covering the attestation server plus a cloud server.
func TestPeriodicAttestationTraces(t *testing.T) {
	tb := newTB(t, Options{Seed: 32})
	cu, err := tb.NewCustomer("alice")
	if err != nil {
		t.Fatal(err)
	}
	res := launch(t, cu, basicLaunch())
	tb.RunFor(time.Second)

	if err := cu.StartPeriodic(res.Vid, properties.CPUAvailability, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	tb.RunFor(7 * time.Second)
	fetched, err := cu.FetchPeriodic(res.Vid, properties.CPUAvailability)
	if err != nil {
		t.Fatal(err)
	}
	if len(fetched) == 0 {
		t.Fatal("no periodic verdicts accumulated")
	}
	flushed, err := cu.StopPeriodic(res.Vid, properties.CPUAvailability)
	if err != nil {
		t.Fatal(err)
	}
	produced := len(fetched) + len(flushed)

	var producedTraces int
	for _, tr := range tb.Obs.Traces(obs.TraceFilter{Vid: res.Vid, CompleteOnly: true}) {
		if tr.Name != "periodic" {
			continue
		}
		checkNesting(t, tr)
		var root *obs.Span
		for i := range tr.Spans {
			if tr.Spans[i].Parent == "" {
				root = &tr.Spans[i]
			}
		}
		if root == nil || root.Entity != "attest-server" {
			t.Fatalf("periodic trace %s not rooted at the attest-server engine: %+v", tr.ID, root)
		}
		var engine string
		for _, n := range root.Notes {
			if n.Key == "engine" {
				engine = n.Value
			}
		}
		if engine == "" {
			t.Fatalf("periodic root span has no engine annotation: %+v", root)
		}
		if engine != "produced" {
			continue // skipped / stopped-discard ticks carry no verdict
		}
		producedTraces++
		ents := entitiesOf(tr)
		if !ents["attest-server"] {
			t.Errorf("periodic trace %s missing attest-server spans (%v)", tr.ID, ents)
		}
		var cloud bool
		for e := range ents {
			if strings.HasPrefix(e, "cloud-server-") {
				cloud = true
			}
		}
		if !cloud {
			t.Errorf("periodic trace %s has no cloud-server measurement span (%v)", tr.ID, ents)
		}
	}
	if producedTraces != produced {
		t.Fatalf("%d produced periodic results but %d produced traces", produced, producedTraces)
	}
}

// TestTracesUnderChaos: under an injected-fault network the attestation
// still yields a complete four-entity trace; retried RPC attempts show up
// as sibling rpc:* spans under the same parent, and the parent carries the
// retry annotation.
func TestTracesUnderChaos(t *testing.T) {
	fn := rpc.NewFaultNetwork(rpc.NewMemNetwork(), rpc.FaultConfig{
		Seed:      5,
		DropRate:  0.15,
		ResetRate: 0.25,
		DelayRate: 0.3,
		MaxDelay:  2 * time.Millisecond,
	})
	tb := newTB(t, Options{
		Seed:    80,
		Network: fn,
		RPC:     rpc.Policy{CallTimeout: 2 * time.Second, MaxAttempts: 8, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond, BreakerThreshold: -1},
	})
	var cu *Customer
	var err error
	for i := 0; i < 10; i++ {
		if cu, err = tb.NewCustomer("alice"); err == nil {
			break
		}
	}
	if err != nil {
		t.Fatalf("customer connect under chaos: %v", err)
	}
	res := launch(t, cu, basicLaunch())
	tb.RunFor(time.Second)

	// Faults are drawn per dial, from a stream of (seed, address, dial
	// ordinal), so the controller's n-th dial to the shard meets the same
	// plan on every run. Attest until a traced call was retried:
	// re-registering the shard drops the controller's connection to it, so
	// every appraisal — the only controller RPC in this loop, always under
	// the request's span — dials afresh and draws the next plan (~1/3 carry
	// a drop or a reset).
	retries := tb.Ctrl.Metrics().Counter("controller/rpc-retries")
	before := retries.Value()
	for i := 0; i < 50 && retries.Value() == before; i++ {
		redialShard(tb)
		if _, err := cu.AttestReport(res.Vid, properties.RuntimeIntegrity); err != nil {
			t.Fatalf("attestation under chaos: %v", err)
		}
	}
	if retries.Value() == before {
		t.Fatalf("50 attestations on fresh connections drew no retried traced call (%+v)", fn.Stats())
	}

	traces := attestTraces(tb, res.Vid)
	if len(traces) == 0 {
		t.Fatal("no complete attestation trace under chaos")
	}
	// Newest first: traces[0] is the trace of the attempt that succeeded.
	coversFourEntities(t, traces[0])
	checkNesting(t, traces[0])

	// Scan the whole store for evidence of retries: >= 2 sibling rpc:* spans
	// under one parent, distinct attempt numbers, and the parent annotated.
	byParent := make(map[string][]obs.Span)
	parents := make(map[string]obs.Span)
	var all []obs.Span
	for _, tr := range tb.Obs.Traces(obs.TraceFilter{}) {
		all = append(all, tr.Spans...)
	}
	for _, sp := range all {
		parents[sp.ID] = sp
		if strings.HasPrefix(sp.Name, "rpc:") {
			byParent[sp.Parent] = append(byParent[sp.Parent], sp)
		}
	}
	foundSiblings := false
	for pid, attempts := range byParent {
		if len(attempts) < 2 {
			continue
		}
		nums := make(map[string]bool)
		for _, a := range attempts {
			for _, n := range a.Notes {
				if n.Key == "attempt" {
					nums[n.Value] = true
				}
			}
		}
		if len(nums) < 2 {
			continue
		}
		p, ok := parents[pid]
		if !ok {
			continue
		}
		for _, n := range p.Notes {
			if n.Key == "retry" {
				foundSiblings = true
			}
		}
	}
	if !foundSiblings {
		t.Fatal("chaos run produced no retried attempt recorded as annotated sibling rpc spans")
	}

	st := fn.Stats()
	if st.Drops == 0 && st.Resets == 0 {
		t.Fatalf("chaos inert (%+v) — test proves nothing", st)
	}
}

// TestStaleReportServeAnnotated: when the attestation server is partitioned
// and the controller degrades to the last-known-good verdict, the trace of
// that request is annotated degraded=stale-report.
func TestStaleReportServeAnnotated(t *testing.T) {
	fn := rpc.NewFaultNetwork(rpc.NewMemNetwork(), rpc.FaultConfig{Seed: 5})
	tb := newTB(t, Options{
		Seed:    65,
		Network: fn,
		RPC:     rpc.Policy{CallTimeout: 250 * time.Millisecond, MaxAttempts: 2, BaseDelay: 5 * time.Millisecond, MaxDelay: 10 * time.Millisecond, BreakerThreshold: -1},
	})
	cu, err := tb.NewCustomer("alice")
	if err != nil {
		t.Fatal(err)
	}
	res := launch(t, cu, basicLaunch())
	tb.RunFor(time.Second)

	// Populate the last-known-good cache, then blackhole the appraiser.
	if rep, err := cu.AttestReport(res.Vid, properties.RuntimeIntegrity); err != nil || rep.Stale {
		t.Fatalf("baseline attest: err=%v stale=%v", err, rep != nil && rep.Stale)
	}
	tb.RunFor(3 * time.Second)
	fn.Partition("attestation-server")

	// Ask the controller directly (the customer-facing rpc timeout is
	// shorter than the controller's own retry budget during the partition,
	// so the degraded answer outlives a customer call).
	rep, err := tb.Ctrl.Attest(wire.AttestRequest{
		Vid: res.Vid, Prop: properties.RuntimeIntegrity, N1: cryptoutil.MustNonce(),
	})
	if err != nil {
		t.Fatalf("attest during partition: %v", err)
	}
	if !rep.Stale {
		t.Fatal("report during partition not flagged stale")
	}

	// The direct call has no customer-api parent, so the controller span
	// roots its own trace.
	var degraded *obs.Trace
	for _, tr := range tb.Obs.Traces(obs.TraceFilter{Vid: res.Vid, CompleteOnly: true}) {
		if tr.Name == "controller.attest" {
			degraded = &tr
			break // newest first
		}
	}
	if degraded == nil {
		t.Fatal("no controller-rooted trace for the degraded serve")
	}
	var annotated bool
	for _, sp := range degraded.Spans {
		for _, n := range sp.Notes {
			if n.Key == "degraded" && n.Value == "stale-report" {
				annotated = true
			}
		}
	}
	if !annotated {
		t.Fatalf("stale serve not annotated in trace %s: %+v", degraded.ID, degraded.Spans)
	}
	if degraded.Outcome != "degraded" {
		t.Fatalf("degraded trace outcome %q, want degraded", degraded.Outcome)
	}
}
