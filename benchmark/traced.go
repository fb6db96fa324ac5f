package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"cloudmonatt/internal/cryptoutil"
)

// counters is one snapshot of every exact count the program exposes
// read-only, plus the benchmark's own transport counts.
type counters struct {
	crypto                             cryptoutil.OpCounts
	net                                netCounts
	ledger                             int
	spans                              uint64
	ticks, produced, skipped, failures int64
}

func snapshot(b *bed, cn *countingNetwork) counters {
	c := counters{crypto: cryptoutil.Ops(), net: cn.snapshot(), ledger: b.tb.Ledger.Len(), spans: b.tb.Obs.Total()}
	c.ticks, c.produced, c.skipped, c.failures, _ = periodicCounters(b.tb)
	return c
}

// newLayerSet starts every per-layer metric at 0, which is what a metric
// that belongs to another workload stays at.
func newLayerSet(fx fixed, slice time.Duration) *layerSet {
	ls := &layerSet{m: map[string]metric{}, fx: fx, slice: slice, cal: newCalibrator()}
	for _, d := range perLayer {
		ls.put(d.name, 0, d.unit)
	}
	return ls
}

// tracedRun is the separate traced run. It times one fixed-size round of
// the workload with benchmark-side spans and a counting network (exact
// counts per op, the legs of an op, tracing overhead against an untraced
// twin), then prices every layer in isolation (leaves) and reconciles the
// leaves against the end-to-end attestation at both fleet sizes (ladder).
func tracedRun(w io.Writer, res *runResult, outDir string, fx fixed) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	// Ten timed loops per ladder and some two dozen leaves, a few at double
	// length: about 45 slices, which with the three fixed-size rounds and
	// the set-ups come to --seconds.
	ls := newLayerSet(fx, time.Duration(res.Seconds/50*float64(time.Second)))
	rec, err := tracedRound(res, ls)
	if err != nil {
		return err
	}
	path, err := rec.write(outDir, res.Workload)
	if err != nil {
		return err
	}
	lc := ls.leaves(res.Seed, outDir)
	steady := ls.ladder("steady", "attest-steady", res.Seed, lc)
	fleet := ls.ladder("fleet", "attest-fleet", res.Seed, lc)
	if ls.err != nil {
		return fmt.Errorf("per-layer measurement: %w", ls.err)
	}
	ls.put("diag.calib_pass_us", median(ls.passes), "us")
	res.Metrics = ls.m
	printLadder(w, ls, "steady", steady)
	printLadder(w, ls, "fleet", fleet)
	fmt.Fprintf(w, "spans of the traced round: %s (%d spans)\n", path, len(rec.spans))
	return nil
}

// tracedRound runs the workload's fixed-size round three times — a
// warm-up, the untraced twin, then traced and counted — and stores the
// tracing overhead next to what countedRound stores.
func tracedRound(res *runResult, ls *layerSet) (*recorder, error) {
	var twin roundResult
	for _, what := range []string{"warm-up", "untraced twin"} {
		r, err := runRound(res.Workload, res.Seed, limit{ops: ls.fx.tracedOps[res.Workload]}, roundOpts{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", what, err)
		}
		res.tally(&r)
		twin = r
	}
	rec, traced, err := countedRound(res, ls)
	if err != nil {
		return nil, err
	}
	ls.put("diag.trace_overhead_pct", (traced.OpMsP50-twin.OpMsP50)/twin.OpMsP50*100, "%")
	return rec, nil
}

// countedRound runs one fixed-size round with benchmark-side spans on a
// counting network and stores the exact counts per op and the legs of an op.
func countedRound(res *runResult, ls *layerSet) (*recorder, roundResult, error) {
	rec, cn := newRecorder(), newCountingNetwork()
	var c0, c1 counters
	traced, err := runRound(res.Workload, res.Seed, limit{ops: ls.fx.tracedOps[res.Workload]}, roundOpts{
		network: cn, rec: rec,
		before: func(b *bed) { c0 = snapshot(b, cn) },
		after:  func(b *bed) { c1 = snapshot(b, cn) },
	})
	if err != nil {
		return nil, traced, fmt.Errorf("traced round: %w", err)
	}
	res.tally(&traced)
	res.Rounds = append(res.Rounds, traced)

	n := float64(traced.Units)
	crypto := c1.crypto.Sub(c0.crypto)
	ls.put("cryptoutil.signs_per_op", float64(crypto.Sign)/n, "count")
	ls.put("cryptoutil.verifies_per_op", float64(crypto.Verify)/n, "count")
	ls.put("cryptoutil.ecdh_per_op", float64(crypto.ECDH)/n, "count")
	ls.put("rpc.conn_writes_per_op", float64(c1.net.writes-c0.net.writes)/n, "count")
	ls.put("rpc.wire_bytes_per_op", float64(c1.net.bytes-c0.net.bytes)/n, "B")
	ls.put("rpc.dials_per_op", float64(c1.net.dials-c0.net.dials)/n, "count")
	ls.put("ledger.appends_per_op", float64(c1.ledger-c0.ledger)/n, "count")
	ls.put("obs.spans_per_op", float64(c1.spans-c0.spans)/n, "count")
	ls.put("vclock.virtual_ms_per_op", traced.VirtualMs, "ms")

	leg := func(span string) time.Duration {
		ds := rec.durations(span)
		vs := make([]float64, len(ds))
		for i, d := range ds {
			vs[i] = float64(d)
		}
		return time.Duration(median(vs))
	}
	switch res.Workload {
	case "periodic":
		ticks := float64(c1.ticks - c0.ticks)
		ls.put("attestsrv.periodic_ticks", ticks, "count")
		ls.put("attestsrv.periodic_produced", float64(c1.produced-c0.produced), "count")
		ls.put("attestsrv.periodic_skipped", float64(c1.skipped-c0.skipped), "count")
		ls.put("attestsrv.periodic_failures", float64(c1.failures-c0.failures), "count")
		if ticks > 0 {
			ls.put("attestsrv.periodic_useful_share", float64(c1.produced-c0.produced)/ticks, "share")
		}
		ls.put("cloudsim.runfor_ms_per_vmin", float64(leg("cloudsim.runfor"))/float64(time.Millisecond)*float64(time.Minute)/float64(periodicStep), "ms")
		ls.put("controller.fetch_periodic_us", us(leg("controller.fetch_periodic"))/float64(2*sizes["periodic"].vms), "us")
	case "churn":
		ls.put("secchan.connect_us", us(leg("secchan.connect")), "us")
		ls.put("controller.launch_ms", float64(leg("controller.launch"))/float64(time.Millisecond), "ms")
		ls.put("cloudsim.first_attest_us", us(leg("cloudsim.first_attest")), "us")
		ls.put("controller.terminate_us", us(leg("controller.terminate")), "us")
	}
	return rec, traced, nil
}
