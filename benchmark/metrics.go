package main

import "fmt"

// metricDef declares one metric: its name, unit and direction, and for an
// end-to-end metric the share of the parent's median by which it may worsen
// before a change counts as a regression. BENCHMARK.json repeats these
// tables; the smoke test keeps the two equal.
type metricDef struct {
	name, unit string
	higher     bool    // higher is better
	bound      float64 // end-to-end only
	// exact marks a per-layer count that two traced runs of one seed must
	// reproduce to the last digit (-compare and the smoke test check it).
	exact bool
}

// endToEnd lists the end-to-end metrics, emitted for every workload by the
// untraced run. README.md justifies each bound from measured A/A spread.
var endToEnd = []metricDef{
	{name: "op_ms_p50", unit: "ms", bound: 0.25},
	{name: "op_ms_p90", unit: "ms", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", higher: true, bound: 0.25},
	{name: "cpu_ms_per_op", unit: "ms", bound: 0.25},
	{name: "allocs_per_op", unit: "count", bound: 0.01},
	{name: "kb_per_op", unit: "KiB", bound: 0.02},
	{name: "rss_mb_peak", unit: "MiB", bound: 0.10},
	{name: "setup_s", unit: "s", bound: 0.25},
}

// perLayer lists the per-layer metrics, emitted by the traced run. A metric
// that belongs to another workload (the churn legs on attest-steady, say)
// is emitted as 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit string) { out = append(out, metricDef{name: name, unit: unit}) }
	exact := func(name, unit string) { out = append(out, metricDef{name: name, unit: unit, exact: true}) }

	// The ladder, at both sizes.
	for _, sfx := range []string{"steady", "fleet"} {
		add("cloudsim.customer_attest_us."+sfx, "us")
		add("controller.attest_us."+sfx, "us")
		add("attestsrv.appraise_us."+sfx, "us")
		for _, p := range []string{"startup-integrity", "runtime-integrity", "covert-channel-freedom", "cpu-availability"} {
			add(fmt.Sprintf("server.measure_us.%s.%s", p, sfx), "us")
		}
		add("vclock.virtual_ms_per_op."+sfx, "ms")
		add("vclock.advance_us."+sfx, "us")
		add("xen.sim_us_per_vsec."+sfx, "us")
		add("ladder.explained_us."+sfx, "us")
		add("ladder.unexplained_us."+sfx, "us")
	}

	// Leaf costs.
	add("cryptoutil.sign_us", "us")
	add("cryptoutil.verify_us", "us")
	add("pca.certify_us", "us")
	add("pca.certify_repeat_us", "us")
	add("trust.new_session_us", "us")
	add("wire.evidence_encode_ns", "ns")
	add("wire.evidence_decode_ns", "ns")
	exact("wire.evidence_bytes", "B")
	add("rpc.echo_call_us", "us")
	add("rpc.echo_call_tcp_us", "us")
	add("secchan.handshake_us", "us")
	add("secchan.resume_us", "us")
	exact("secchan.handshake_asym_ops", "count")
	for _, p := range []string{"startup-integrity", "runtime-integrity", "covert-channel-freedom", "cpu-availability"} {
		add("interpret.interpret_us."+p, "us")
	}
	add("ledger.append_us", "us")
	add("ledger.append_disk_us", "us")
	add("ledger.verify_ms_per_10k", "ms")
	add("obs.span_ns", "ns")
	add("metrics.observe_ns", "ns")
	add("shard.lookup_ns", "ns")
	add("attestsrv.periodic_sched_us_per_tick", "us")
	add("reconcile.pass_us", "us")

	// Counts per op of the traced workload. All are exact but the two
	// transport volumes: a write still in flight when the round ends lands
	// on either side of the snapshot, and encoded sizes vary by a few bytes
	// with the values encoded.
	exact("cryptoutil.signs_per_op", "count")
	exact("cryptoutil.verifies_per_op", "count")
	exact("cryptoutil.ecdh_per_op", "count")
	add("rpc.conn_writes_per_op", "count")
	add("rpc.wire_bytes_per_op", "B")
	exact("rpc.dials_per_op", "count")
	exact("ledger.appends_per_op", "count")
	exact("obs.spans_per_op", "count")
	exact("vclock.virtual_ms_per_op", "ms")

	// Legs of a periodic step and the engine's accounting (periodic only).
	exact("attestsrv.periodic_ticks", "count")
	exact("attestsrv.periodic_produced", "count")
	exact("attestsrv.periodic_skipped", "count")
	exact("attestsrv.periodic_failures", "count")
	out = append(out, metricDef{name: "attestsrv.periodic_useful_share", unit: "share", higher: true, exact: true})
	add("cloudsim.runfor_ms_per_vmin", "ms")
	add("controller.fetch_periodic_us", "us")

	// Legs of a churn cycle (churn only).
	add("secchan.connect_us", "us")
	add("controller.launch_ms", "ms")
	add("cloudsim.first_attest_us", "us")
	add("controller.terminate_us", "us")

	add("diag.trace_overhead_pct", "%")
	// The reference kernel's pass (calib.go) while the per-layer times were
	// taken: they are wall clock as read, the end-to-end times are at
	// calibRef, and this is the ratio between the two.
	add("diag.calib_pass_us", "us")
	return out
}
