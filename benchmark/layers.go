package main

import (
	"context"
	"crypto/ed25519"
	"crypto/rand"
	"fmt"
	"io"
	"math"
	mrand "math/rand"
	"os"
	"time"

	"cloudmonatt"
	"cloudmonatt/internal/attestsrv"
	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/interpret"
	"cloudmonatt/internal/ledger"
	"cloudmonatt/internal/metrics"
	"cloudmonatt/internal/obs"
	"cloudmonatt/internal/pca"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/rpc"
	"cloudmonatt/internal/secchan"
	"cloudmonatt/internal/shard"
	"cloudmonatt/internal/trust"
	"cloudmonatt/internal/trust/driver"
	"cloudmonatt/internal/wire"
)

// Per-layer cost measurement for the traced run: the ladder (the nested
// public entry points of one attestation, timed directly with fresh
// nonces) and the leaf costs (isolated calls on inputs captured from a
// real attestation under the seed). Everything is timed from outside,
// through exported functions only.

// timeCalls calls fn repeatedly for about budget and returns the median
// cost of one call and how many calls it made. Calls are timed in batches
// sized to ~0.5 ms so the clock reads do not dominate a nanosecond-scale
// leaf, and the median over batches discards the batches a neighbour's
// burst landed on. A batch is a whole number of cycles: when consecutive
// calls differ (the ladder rotates over properties of very different cost)
// every batch holds the same mix. One pass of the reference kernel precedes
// the loop: the passes of a whole traced run say how fast the host was
// while the per-layer times, which are wall clock as read, were taken.
func (ls *layerSet) timeCalls(budget time.Duration, cycle int, fn func()) (time.Duration, int) {
	ls.passes = append(ls.passes, us(ls.cal.pass()))
	calls := 0
	run := func(batch int) time.Duration {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		calls += batch
		return time.Since(t0)
	}
	batch := cycle
	for run(batch) < 500*time.Microsecond && batch < 1<<20 {
		batch *= 2
	}
	var per []float64
	for start := time.Now(); time.Since(start) < budget || len(per) < 3; {
		per = append(per, float64(run(batch))/float64(batch))
	}
	return time.Duration(median(per)), calls
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ns(d time.Duration) float64 { return float64(d) }

// layerSet accumulates per-layer metrics and remembers the first error.
type layerSet struct {
	m      map[string]metric
	slice  time.Duration // time budget of one timed loop
	fx     fixed
	err    error
	cal    *calibrator
	passes []float64 // one kernel pass before every timed loop, in µs
}

func (ls *layerSet) put(name string, v float64, unit string) {
	ls.m[name] = metric{Value: v, Unit: unit}
}

func (ls *layerSet) get(name string) float64 { return ls.m[name].Value }

func (ls *layerSet) fail(err error) {
	if ls.err == nil && err != nil {
		ls.err = err
	}
}

// timed measures fn (which may fail) and stores its median cost.
func (ls *layerSet) timed(name, unit string, conv func(time.Duration) float64, fn func() error) {
	ls.timedCycle(name, unit, conv, 1, fn)
}

// timedCycle is timed for a call whose cost repeats every cycle calls.
func (ls *layerSet) timedCycle(name, unit string, conv func(time.Duration) float64, cycle int, fn func() error) {
	d, _ := ls.timeCalls(ls.slice, cycle, func() { ls.fail(fn()) })
	ls.put(name, conv(d), unit)
}

// --- ladder ---

// ladderRow is one line of the printed reconciliation: a leaf cost, how
// often one attestation pays it, and the product.
type ladderRow struct {
	name  string
	unit  float64 // µs per call
	count float64 // calls per attestation
}

// ladder measures the nested entry points at one fleet size and reconciles
// the leaf costs against the end-to-end figure. suffix is "steady" or
// "fleet"; the bed is built like that workload's and driven with its
// property mix, so the sanity row equals that workload's op_ms_p50.
func (ls *layerSet) ladder(suffix, workload string, seed int64, leaves *leafCosts) []ladderRow {
	cn := newCountingNetwork()
	b, err := setUp(workload, seed, cn, nil)
	if err != nil {
		ls.fail(fmt.Errorf("ladder %s: %w", suffix, err))
		return nil
	}
	tb := b.tb
	put := func(name string, v float64, unit string) { ls.put(name+"."+suffix, v, unit) }

	// Customer.Attest, with every exact count one attestation causes.
	k := warmupOps * len(cloudmonatt.AllProperties)
	crypto0, net0 := cryptoutil.Ops(), cn.snapshot()
	ledger0, spans0, v0 := tb.Ledger.Len(), tb.Obs.Total(), tb.Clock.Now()
	pca0 := tb.PCA.CertStats()
	cycle := len(cloudmonatt.AllProperties) // a multiple of attest-steady's cycle of two
	d, ops := ls.timeCalls(ls.slice*2, cycle, func() {
		vid, p := b.target(k)
		k++
		ls.fail(attestHealthy(b.cu, vid, p))
	})
	n := float64(ops)
	crypto, nets := cryptoutil.Ops().Sub(crypto0), cn.snapshot()
	virtual := tb.Clock.Now() - v0
	pcaN := tb.PCA.CertStats()
	put("cloudsim.customer_attest_us", us(d), "us")
	put("vclock.virtual_ms_per_op", float64(virtual)/float64(time.Millisecond)/n, "ms")

	signs, verifies := float64(crypto.Sign)/n, float64(crypto.Verify)/n
	appends := float64(tb.Ledger.Len()-ledger0) / n
	spans := float64(tb.Obs.Total()-spans0) / n
	calls := float64(nets.writes-net0.writes) / n / leaves.writesPerCall
	issued := float64(pcaN.Issued-pca0.Issued) / n
	repeats := float64(pcaN.CacheHits-pca0.CacheHits) / n

	// Controller.Attest: the same attestation without the customer hop
	// and the customer's end-verification.
	k = 0
	ls.timedCycle("controller.attest_us."+suffix, "us", us, cycle, func() error {
		vid, p := b.target(k)
		k++
		n1 := cryptoutil.MustNonce()
		rep, err := tb.Ctrl.Attest(wire.AttestRequest{Vid: vid, Prop: p, N1: n1, Trace: obs.MintTrace(n1[:])})
		if err == nil && !rep.Verdict.Healthy {
			err = fmt.Errorf("controller.attest: %s unhealthy: %s", vid, rep.Verdict.Reason)
		}
		return err
	})

	// attestsrv.Server.Appraise on the shard that owns the VM.
	owner := func(vid string) *attestsrv.Server {
		if tb.Ring != nil {
			if name, _, ok := tb.Ring.Lookup(vid); ok {
				for _, as := range tb.AttestServers {
					if as.Shard() == name {
						return as
					}
				}
			}
		}
		return tb.Attest
	}
	k = 0
	ls.timedCycle("attestsrv.appraise_us."+suffix, "us", us, cycle, func() error {
		vid, p := b.target(k)
		k++
		srv, err := tb.Ctrl.VMServer(vid)
		if err != nil {
			return err
		}
		rep, err := owner(vid).Appraise(wire.AppraisalRequest{Vid: vid, ServerID: srv, Prop: p, N2: cryptoutil.MustNonce()})
		if err == nil && !rep.Verdict.Healthy {
			err = fmt.Errorf("attestsrv.appraise: %s unhealthy: %s", vid, rep.Verdict.Reason)
		}
		return err
	})

	// server.Server.Measure, one row per property.
	for _, p := range cloudmonatt.AllProperties {
		p := p
		req, err := driver.MapToMeasurements(driver.BackendTPM, p)
		if err != nil {
			ls.fail(err)
			continue
		}
		k = 0
		ls.timed(fmt.Sprintf("server.measure_us.%s.%s", p, suffix), "us", us, func() error {
			vid := b.vids[k%len(b.vids)]
			k++
			srv, err := tb.ServerOf(vid)
			if err != nil {
				return err
			}
			_, err = srv.Measure(wire.MeasureRequest{Vid: vid, Req: req, N3: cryptoutil.MustNonce()})
			return err
		})
	}

	// The simulator's share: advancing the shared clock by what one
	// attestation advances it, and by one idle virtual second.
	perOp := virtual / time.Duration(ops)
	ls.timed("vclock.advance_us."+suffix, "us", us, func() error { tb.Clock.Advance(perOp); return nil })
	ls.timed("xen.sim_us_per_vsec."+suffix, "us", us, func() error { tb.Clock.Advance(time.Second); return nil })
	if suffix == "fleet" {
		ls.timed("reconcile.pass_us", "us", us, func() error { tb.Ctrl.ReconcileNow(); return nil })
	}

	// Reconciliation. The crypto inside a session mint and a certification
	// is already counted by the process-wide sign/verify counters, so those
	// two rows carry only their remainder (key generation, hashing, maps).
	minus := func(total float64, signs, verifies float64) float64 {
		return math.Max(0, total-signs*ls.get("cryptoutil.sign_us")-verifies*ls.get("cryptoutil.verify_us"))
	}
	mix := 0.0
	props := cloudmonatt.AllProperties
	if workload == "attest-steady" {
		props = []cloudmonatt.Property{cloudmonatt.StartupIntegrity, cloudmonatt.RuntimeIntegrity}
	}
	for _, p := range props {
		mix += ls.get("interpret.interpret_us."+string(p)) / float64(len(props))
	}
	rows := []ladderRow{
		{"vclock.advance_us", ls.get("vclock.advance_us." + suffix), 1},
		{"cryptoutil.sign_us", ls.get("cryptoutil.sign_us"), signs},
		{"cryptoutil.verify_us", ls.get("cryptoutil.verify_us"), verifies},
		{"rpc.echo_call_us", ls.get("rpc.echo_call_us"), calls},
		{"trust.new_session_us (less its sign)", minus(ls.get("trust.new_session_us"), leaves.sessionSigns, 0), issued},
		{"pca.certify_us (less its sign+verify)", minus(ls.get("pca.certify_us"), leaves.certifySigns, leaves.certifyVerifies), issued},
		{"pca.certify_repeat_us", ls.get("pca.certify_repeat_us"), repeats},
		{"wire.evidence encode+decode", (ls.get("wire.evidence_encode_ns") + ls.get("wire.evidence_decode_ns")) / 1e3, 1},
		{"interpret.interpret_us (property mix)", mix, 1},
		{"ledger.append_us", ls.get("ledger.append_us"), appends},
		{"obs.span_ns", ls.get("obs.span_ns") / 1e3, spans},
	}
	sum := 0.0
	for _, r := range rows {
		sum += r.unit * r.count
	}
	put("ladder.explained_us", sum, "us")
	put("ladder.unexplained_us", us(d)-sum, "us")
	return rows
}

// printLadder prints the reconciliation of one size.
func printLadder(w io.Writer, ls *layerSet, suffix string, rows []ladderRow) {
	fmt.Fprintf(w, "ladder .%s\n", suffix)
	for _, n := range []string{"cloudsim.customer_attest_us", "controller.attest_us", "attestsrv.appraise_us"} {
		fmt.Fprintf(w, "  %-44s %12.2f us\n", n, ls.get(n+"."+suffix))
	}
	for _, p := range cloudmonatt.AllProperties {
		n := fmt.Sprintf("server.measure_us.%s", p)
		fmt.Fprintf(w, "  %-44s %12.2f us\n", n, ls.get(n+"."+suffix))
	}
	fmt.Fprintf(w, "  %-44s %12s    %8s %12s\n", "leaf", "us/call", "calls/op", "us/op")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-44s %12.3f  x %8.3f %12.2f\n", r.name, r.unit, r.count, r.unit*r.count)
	}
	fmt.Fprintf(w, "  %-44s %36.2f us\n", "sum of leaves (ladder.explained_us)", ls.get("ladder.explained_us."+suffix))
	fmt.Fprintf(w, "  %-44s %36.2f us\n", "ladder.unexplained_us", ls.get("ladder.unexplained_us."+suffix))
	share := ls.get("vclock.advance_us."+suffix) / ls.get("cloudsim.customer_attest_us."+suffix) * 100
	fmt.Fprintf(w, "  %-44s %36.1f %%\n", "vclock.advance_us share of customer_attest_us", share)
}

// --- leaf costs ---

// leafCosts carries what the ladder needs from the leaves beyond their
// metrics: exact per-call counts of the work nested inside them.
type leafCosts struct {
	writesPerCall   float64 // conn writes of one rpc call, both directions
	sessionSigns    float64 // signatures inside trust.Module.NewSession
	certifySigns    float64 // signatures inside a fresh PCA.Certify
	certifyVerifies float64 // verifications inside a fresh PCA.Certify
}

func verifyAny(string, ed25519.PublicKey) error { return nil }

// leaves measures every isolated leaf cost. Inputs that have a real shape
// (evidence, measurements) are captured from an attestation on a steady
// testbed built under the seed.
func (ls *layerSet) leaves(seed int64, tmpDir string) *leafCosts {
	lc := &leafCosts{}

	// cryptoutil: one signature and one verification over an
	// evidence-sized message.
	id := cryptoutil.MustIdentity("leaf-signer")
	msg := make([]byte, echoBody)
	sig := id.Sign(msg)
	ls.timed("cryptoutil.sign_us", "us", us, func() error { sig = id.Sign(msg); return nil })
	ls.timed("cryptoutil.verify_us", "us", us, func() error {
		if !cryptoutil.Verify(id.Public(), msg, sig) {
			return fmt.Errorf("cryptoutil.verify: signature rejected")
		}
		return nil
	})

	// trust + pca: minting a session key, certifying it, certifying it again.
	tm, err := trust.NewModule("leaf-server", 8, rand.Reader)
	if err != nil {
		ls.fail(err)
		return lc
	}
	ca, err := pca.New("leaf-ca", rand.Reader)
	if err != nil {
		ls.fail(err)
		return lc
	}
	ca.RegisterServer("leaf-server", tm.IdentityKey())
	var csr *trust.CertRequest
	c0 := cryptoutil.Ops()
	d, calls := ls.timeCalls(ls.slice, 1, func() {
		_, csr, err = tm.NewSession()
		ls.fail(err)
	})
	ls.put("trust.new_session_us", us(d), "us")
	lc.sessionSigns = float64(cryptoutil.Ops().Sub(c0).Sign) / float64(calls)

	csrs := make([]*trust.CertRequest, 0, ls.fx.csrPool)
	for len(csrs) < cap(csrs) {
		_, c, err := tm.NewSession()
		if err != nil {
			ls.fail(err)
			return lc
		}
		csrs = append(csrs, c)
	}
	// A fresh CSR per call; the pool bounds the loop, not the clock, so the
	// cost of minting CSRs stays outside the timed region.
	c0 = cryptoutil.Ops()
	t0 := time.Now()
	for _, c := range csrs {
		_, err := ca.Certify(c)
		ls.fail(err)
	}
	ls.put("pca.certify_us", us(time.Since(t0))/float64(len(csrs)), "us")
	cd := cryptoutil.Ops().Sub(c0)
	lc.certifySigns = float64(cd.Sign) / float64(len(csrs))
	lc.certifyVerifies = float64(cd.Verify) / float64(len(csrs))
	ls.timed("pca.certify_repeat_us", "us", us, func() error { _, err := ca.Certify(csr); return err })

	// Captured inputs: evidence and measurements of each property from a
	// real cloud server.
	b, err := setUp("attest-steady", seed, nil, nil)
	if err != nil {
		ls.fail(err)
		return lc
	}
	srv, err := b.tb.ServerOf(b.vids[0])
	if err != nil {
		ls.fail(err)
		return lc
	}
	golden, err := b.tb.Images.GoldenDigest(launchRequest().ImageName)
	if err != nil {
		ls.fail(err)
		return lc
	}
	for _, p := range cloudmonatt.AllProperties {
		p := p
		req, err := driver.MapToMeasurements(driver.BackendTPM, p)
		if err != nil {
			ls.fail(err)
			continue
		}
		n3 := cryptoutil.MustNonce()
		ev, err := srv.Measure(wire.MeasureRequest{Vid: b.vids[0], Req: req, N3: n3})
		if err != nil {
			ls.fail(err)
			continue
		}
		refs := interpret.References{
			ServerAIK:      ed25519.PublicKey(srv.AIK()),
			PlatformGolden: interpret.GoldenPlatform(),
			ExpectedImage:  golden,
			Vid:            b.vids[0],
			TaskAllowlist:  launchRequest().Allowlist,
			MinCPUShare:    launchRequest().MinShare,
			Backend:        driver.BackendTPM,
		}
		ls.timed("interpret.interpret_us."+string(p), "us", us, func() error {
			if v := interpret.Interpret(p, ev.Measurements, n3, refs); !v.Healthy {
				return fmt.Errorf("interpret %s: captured measurements unhealthy: %s", p, v.Reason)
			}
			return nil
		})
		if p != properties.RuntimeIntegrity {
			continue
		}
		// wire: the largest message of one attestation, there and back.
		enc, err := rpc.Encode(*ev)
		if err != nil {
			ls.fail(err)
			continue
		}
		ls.put("wire.evidence_bytes", float64(len(enc)), "B")
		ls.timed("wire.evidence_encode_ns", "ns", ns, func() error { _, err := rpc.Encode(*ev); return err })
		ls.timed("wire.evidence_decode_ns", "ns", ns, func() error { var out wire.Evidence; return rpc.Decode(enc, &out) })
	}

	ls.rpcLeaves(lc)
	ls.ledgerLeaves(tmpDir)

	// obs + metrics: what one span and one summary observation cost.
	store := obs.NewStore(0)
	var vnow time.Duration
	tracer := obs.NewTracer(store, "leaf", func() time.Duration { vnow++; return vnow })
	ls.timed("obs.span_ns", "ns", ns, func() error {
		sp := tracer.Start(obs.SpanContext{}, "leaf")
		sp.SetVM("vm-0001", "runtime-integrity")
		sp.End("")
		return nil
	})
	sum := metrics.NewRegistry().Summary("appraise/runtime-integrity")
	ls.timed("metrics.observe_ns", "ns", ns, func() error { vnow += 977; sum.Observe(vnow % time.Second); return nil })

	// shard: one ring lookup among eight members.
	ring := shard.NewRing(seed, 0)
	for i := 0; i < 8; i++ {
		ring.Join(fmt.Sprintf("shard-%d", i))
	}
	k := 0
	ls.timed("shard.lookup_ns", "ns", ns, func() error {
		k++
		if _, _, ok := ring.Lookup(fmt.Sprintf("vm-%04d", k%4096)); !ok {
			return fmt.Errorf("shard.lookup: empty ring")
		}
		return nil
	})

	ls.schedLeaf(seed)
	return lc
}

// rpcLeaves measures one echo call over secchan on the in-memory network
// and on loopback TCP, and connection set-up with and without resumption.
func (ls *layerSet) rpcLeaves(lc *leafCosts) {
	serverID := cryptoutil.MustIdentity("leaf-echo-server")
	clientID := cryptoutil.MustIdentity("leaf-echo-client")
	keeper, err := secchan.NewTicketKeeper(0)
	if err != nil {
		ls.fail(err)
		return
	}
	echo := func(_ rpc.Peer, _ string, body []byte) ([]byte, error) { return body, nil }
	body := make([]byte, echoBody)
	ctx := context.Background()

	serve := func(network rpc.Network, addr string) (string, func(), error) {
		l, err := network.Listen(addr)
		if err != nil {
			return "", nil, err
		}
		go rpc.Serve(l, secchan.Config{Identity: serverID, Verify: verifyAny, Tickets: keeper}, echo)
		return l.Addr().String(), func() { l.Close() }, nil
	}
	call := func(c *rpc.Client) error {
		var out []byte
		cctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		return c.CallCtx(cctx, "echo", body, &out)
	}

	cn := newCountingNetwork()
	addr, stop, err := serve(cn, "leaf-echo")
	if err != nil {
		ls.fail(err)
		return
	}
	defer stop()
	cfg := secchan.Config{Identity: clientID, Verify: verifyAny}
	c, err := rpc.DialContext(ctx, cn, addr, cfg)
	if err != nil {
		ls.fail(err)
		return
	}
	ls.fail(call(c))
	w0 := cn.snapshot().writes
	d, calls := ls.timeCalls(ls.slice, 1, func() { ls.fail(call(c)) })
	ls.put("rpc.echo_call_us", us(d), "us")
	lc.writesPerCall = float64(cn.snapshot().writes-w0) / float64(calls)
	c.Close()

	// Connection set-up: full asymmetric handshake, then ticket resumption.
	dial := func(cfg secchan.Config) func() error {
		return func() error {
			c, err := rpc.DialContext(ctx, cn, addr, cfg)
			if err != nil {
				return err
			}
			return c.Close()
		}
	}
	// The asymmetric operations of one handshake are counted over a few
	// handshakes of their own, each followed by a call: on one P a client
	// that dials and closes at once can close before the server has checked
	// its signature, and the server then skips the check. They are counted
	// before the timed loop of such dial-and-close handshakes, not after it,
	// so that none of its server sides is still running inside the window.
	const counted = 8
	settle()
	c0 := cryptoutil.Ops()
	for i := 0; i < counted; i++ {
		c, err := rpc.DialContext(ctx, cn, addr, cfg)
		if err != nil {
			ls.fail(err)
			return
		}
		ls.fail(call(c))
		c.Close()
	}
	settle()
	ls.put("secchan.handshake_asym_ops", float64(cryptoutil.Ops().Sub(c0).Asymmetric())/counted, "count")
	full := dial(cfg)
	d, _ = ls.timeCalls(ls.slice, 1, func() { ls.fail(full()) })
	ls.put("secchan.handshake_us", us(d), "us")
	cfg.Session = secchan.NewSessionCache()
	ls.fail(dial(cfg)()) // earns the first ticket
	ls.timed("secchan.resume_us", "us", us, dial(cfg))

	// The same echo over loopback TCP, the daemon's transport. A sandbox
	// without loopback sockets reports 0 here rather than failing the run:
	// the row is informational.
	ls.put("rpc.echo_call_tcp_us", 0, "us")
	tcpAddr, stopTCP, err := serve(rpc.TCPNetwork{}, "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: no loopback TCP, rpc.echo_call_tcp_us = 0:", err)
		return
	}
	defer stopTCP()
	tc, err := rpc.DialContext(ctx, rpc.TCPNetwork{}, tcpAddr, secchan.Config{Identity: clientID, Verify: verifyAny})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: no loopback TCP, rpc.echo_call_tcp_us = 0:", err)
		return
	}
	defer tc.Close()
	ls.timed("rpc.echo_call_tcp_us", "us", us, func() error { return call(tc) })
}

// settle lets the server side of finished handshakes run to completion, so
// their signature checks land inside the counter window they belong to: it
// returns once the process-wide crypto counters have stood still for four
// sleeps in a row. With a fixed 10 ms sleep, and the window placed after a
// timed loop of hundreds of dial-and-close handshakes, one traced run in
// sixteen counted 23.5 asymmetric operations a handshake where the others
// count 8.
func settle() {
	for still := 0; still < 4; {
		before := cryptoutil.Ops()
		time.Sleep(5 * time.Millisecond)
		if cryptoutil.Ops() == before {
			still++
		} else {
			still = 0
		}
	}
}

// ledgerLeaves measures one append in memory and on disk, and a full
// chain verification.
func (ls *layerSet) ledgerLeaves(tmpDir string) {
	var vnow time.Duration
	now := func() time.Time { vnow += time.Millisecond; return time.Unix(0, int64(vnow)) }
	entry := ledger.Entry{Kind: ledger.KindAppraisal, Vid: "vm-0001", Prop: "runtime-integrity",
		Trace: "0123456789abcdef", Payload: []byte(`{"server":"cloud-server-1","backend":"tpm","healthy":true}`)}
	appendTo := func(l *ledger.Ledger) func() error {
		return func() error { entry.At += time.Millisecond; _, err := l.Append(entry); return err }
	}

	mem, err := ledger.Open(ledger.Options{Now: now})
	if err != nil {
		ls.fail(err)
		return
	}
	defer mem.Close()
	ls.timed("ledger.append_us", "us", us, appendTo(mem))
	for mem.Len() < ls.fx.ledgerVerifyEntries {
		ls.fail(appendTo(mem)())
	}
	t0 := time.Now()
	n, err := mem.Verify()
	ls.fail(err)
	ls.put("ledger.verify_ms_per_10k", float64(time.Since(t0))/float64(time.Millisecond)*1e4/float64(n), "ms")

	dir, err := os.MkdirTemp(tmpDir, "ledger-")
	if err != nil {
		ls.fail(err)
		return
	}
	defer os.RemoveAll(dir)
	disk, err := ledger.Open(ledger.Options{Dir: dir, Now: now})
	if err != nil {
		ls.fail(err)
		return
	}
	defer disk.Close()
	ls.timed("ledger.append_disk_us", "us", us, appendTo(disk))
}

// schedLeaf prices the periodic engine's scheduling alone: a deep deadline
// heap, a free appraisal, a synthetic clock.
func (ls *layerSet) schedLeaf(seed int64) {
	var vnow time.Duration
	rng := mrand.New(mrand.NewSource(seed))
	rep := &wire.Report{}
	eng := attestsrv.NewFleetEngine(attestsrv.PeriodicConfig{ResultBuffer: 1}, func() time.Duration { return vnow }, rng.Int63n,
		func(string, string, properties.Property) (*wire.Report, error) { return rep, nil })
	for i := 0; i < ls.fx.schedStreams; i++ {
		err := eng.StartRandom(fmt.Sprintf("vm-%06d", i), fmt.Sprintf("cloud-server-%d", i%64), properties.RuntimeIntegrity, 10*time.Second)
		if err != nil {
			ls.fail(err)
			return
		}
	}
	ticks := 0
	t0 := time.Now()
	for time.Since(t0) < ls.slice*2 {
		due, ok := eng.NextDue()
		if !ok {
			break
		}
		if due > vnow {
			vnow = due
		}
		ticks += len(eng.RunDue())
	}
	if ticks == 0 {
		ls.fail(fmt.Errorf("periodic scheduler leaf produced no ticks"))
		return
	}
	ls.put("attestsrv.periodic_sched_us_per_tick", us(time.Since(t0))/float64(ticks), "us")
}
