package cloudsim

import (
	"bytes"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/ledger"
	"cloudmonatt/internal/obs"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/rpc"
	"cloudmonatt/internal/trust/driver"
	"cloudmonatt/internal/wire"
)

// sessionUses mirrors internal/server's unexported rotation constant;
// TestSignatureBudget fails if the two drift apart.
const sessionUses = 8

// TestSignatureBudget pins DESIGN.md §15's table: what an attestation pays
// in ed25519 operations, exactly, and that the default no longer depends on
// Options.Shards. Two windows of attestations, alternating startup and
// runtime integrity, cost per attestation 3 signatures that are Fig. 3's
// own (evidence under ASKs, the shard's report under SKa, the customer
// report under SKc), half a quote, and 2/8 for the session (the CSR under
// SKs and the pCA's certificate) — and one verification of each.
func TestSignatureBudget(t *testing.T) {
	for _, opts := range []Options{{Seed: 5, Servers: 1}, {Seed: 5, Servers: 1, Shards: 4}} {
		t.Run(fmt.Sprintf("shards=%d", opts.Shards), func(t *testing.T) {
			tb := newTB(t, opts)
			cu, err := tb.NewCustomer("alice")
			if err != nil {
				t.Fatal(err)
			}
			res := launch(t, cu, basicLaunch())
			const n = 2 * sessionUses
			issued := tb.PCA.CertStats().Issued
			before := cryptoutil.Ops()
			for i := 0; i < n; i++ {
				p := properties.StartupIntegrity
				if i%2 == 1 {
					p = properties.RuntimeIntegrity
				}
				if v, err := cu.Attest(res.Vid, p); err != nil || !v.Healthy {
					t.Fatalf("attest %d (%s): %v %v", i, p, v, err)
				}
			}
			got := cryptoutil.Ops().Sub(before)
			const want = 3*n + n/2 + 2*n/sessionUses // 60: 3.75 per attestation
			if got.Sign != want || got.Verify != want {
				t.Fatalf("%d attestations cost %d signs / %d verifies, want %d / %d", n, got.Sign, got.Verify, want, want)
			}
			if got := tb.PCA.CertStats().Issued - issued; got != n/sessionUses {
				t.Fatalf("%d attestations crossed %d rotations, want %d", n, got, n/sessionUses)
			}
		})
	}
}

// TestSixWritesPerAttestation pins Fig. 3's hop count on the wire: an
// on-demand attestation is three request/response exchanges (customer →
// controller → attestation server → cloud server), six secure-channel
// records, and each record is one Write on its connection. A hop added, or
// a record split across writes, fails here. The window is a multiple of
// sessionUses, so it crosses whole key rotations, as the signature budget's
// does; the pCA is in process and puts nothing on the wire.
func TestSixWritesPerAttestation(t *testing.T) {
	counted := &byteCountingNetwork{inner: rpc.NewMemNetwork()}
	tb := newTB(t, Options{Seed: 5, Servers: 1, Network: counted})
	cu, err := tb.NewCustomer("alice")
	if err != nil {
		t.Fatal(err)
	}
	res := launch(t, cu, basicLaunch())
	const n = 2 * sessionUses
	w0, d0 := counted.writes.Load(), counted.dials.Load()
	for i := 0; i < n; i++ {
		p := properties.StartupIntegrity
		if i%2 == 1 {
			p = properties.RuntimeIntegrity
		}
		if v, err := cu.Attest(res.Vid, p); err != nil || !v.Healthy {
			t.Fatalf("attest %d (%s): %v %v", i, p, v, err)
		}
	}
	writes, dials := counted.writes.Load()-w0, counted.dials.Load()-d0
	if writes != 6*n || dials != 0 {
		t.Fatalf("%d attestations wrote %d records over %d new connections, want %d over none", n, writes, dials, 6*n)
	}
}

// TestVerifyTableBuildsOnePerAVK pins the miss rate cryptoutil.Verify's
// per-key tables rest on: once a testbed is warm, its long-lived keys stay
// cached, and 64 on-demand attestations on one server build tables for
// the 8 attestation keys they cross, one each, and for nothing else. A
// smaller cache or a change to AVK rotation fails here before it makes
// every check pay a table build.
func TestVerifyTableBuildsOnePerAVK(t *testing.T) {
	tb := newTB(t, Options{Seed: 5, Servers: 1})
	cu, err := tb.NewCustomer("alice")
	if err != nil {
		t.Fatal(err)
	}
	res := launch(t, cu, basicLaunch())
	attest := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			p := properties.StartupIntegrity
			if i%2 == 1 {
				p = properties.RuntimeIntegrity
			}
			if v, err := cu.Attest(res.Vid, p); err != nil || !v.Healthy {
				t.Fatalf("attest %d (%s): %v %v", i, p, v, err)
			}
		}
	}
	attest(2 * sessionUses)
	issued := tb.PCA.CertStats().Issued
	before := cryptoutil.VerifyTableBuilds()
	const n = 8 * sessionUses
	attest(n)
	builds := cryptoutil.VerifyTableBuilds() - before
	if avks := tb.PCA.CertStats().Issued - issued; avks != n/sessionUses || builds != avks {
		t.Fatalf("%d attestations crossed %d fresh attestation keys and built %d key tables, want %d and %d",
			n, avks, builds, n/sessionUses, n/sessionUses)
	}
}

// TestPeriodicSignatureBudget pins the periodic row of DESIGN.md §15's
// table: a drain of k buffered results costs k evidence signatures (one
// per tick, under ASKs), one batch signature by the shard (SKa) and one by
// the controller (SKc), and two per session rotation (the CSR under SKs and
// the pCA's certificate) — and one verification of each. Signed per
// report, as before, the same drain cost 3k plus the rotations.
func TestPeriodicSignatureBudget(t *testing.T) {
	tb := newTB(t, Options{Seed: 5, Servers: 1})
	cu, err := tb.NewCustomer("alice")
	if err != nil {
		t.Fatal(err)
	}
	res := launch(t, cu, basicLaunch())
	if err := cu.StartPeriodic(res.Vid, properties.RuntimeIntegrity, time.Second); err != nil {
		t.Fatal(err)
	}
	issued := tb.PCA.CertStats().Issued
	before := cryptoutil.Ops()
	tb.RunFor(12 * time.Second)
	vs, err := cu.FetchPeriodic(res.Vid, properties.RuntimeIntegrity)
	if err != nil {
		t.Fatal(err)
	}
	got := cryptoutil.Ops().Sub(before)
	k, rotations := uint64(len(vs)), tb.PCA.CertStats().Issued-issued
	if k < sessionUses || rotations < 1 {
		t.Fatalf("one drain of %d results across %d rotations; want at least %d results and a rotation", k, rotations, sessionUses)
	}
	want := k + 1 + 1 + 2*rotations
	if got.Sign != want || got.Verify != want {
		t.Fatalf("a drain of %d results across %d rotations cost %d signs / %d verifies, want %d / %d",
			k, rotations, got.Sign, got.Verify, want, want)
	}
}

// TestAVKConfinement checks what the session policy relies on: an
// attestation key and its anonymous certificate appear in hop-4 evidence and
// nowhere an observer of the system's outputs can look — no ledger payload,
// shard report, customer report or span annotation — so how long a key
// lives is invisible outside the shard that checked it. The pCA's own
// cert-issue entries name the serial and never a server.
func TestAVKConfinement(t *testing.T) {
	tb := newTB(t, Options{Seed: 9, Servers: 2, Shards: 2})
	cu, err := tb.NewCustomer("alice")
	if err != nil {
		t.Fatal(err)
	}
	var vids []string
	for i := 0; i < 3; i++ {
		vids = append(vids, launch(t, cu, basicLaunch()).Vid)
	}

	// Every session a server ever used is current at some probe: probes are
	// fewer than sessionUses measurements apart, and the count of distinct
	// keys is checked against the pCA's issuance count at the end.
	rtReq, err := driver.MapToMeasurements(driver.BackendTPM, properties.RuntimeIntegrity)
	if err != nil {
		t.Fatal(err)
	}
	avks := map[string]bool{}
	probe := func() {
		t.Helper()
		for _, vid := range vids {
			srv, err := tb.ServerOf(vid)
			if err != nil {
				t.Fatal(err)
			}
			ev, err := srv.Measure(wire.MeasureRequest{Vid: vid, Req: rtReq, N3: cryptoutil.MustNonce()})
			if err != nil {
				t.Fatal(err)
			}
			avks[string(ev.AVK)] = true
		}
	}

	var outputs [][]byte
	keep := func(v any) {
		t.Helper()
		b, err := rpc.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, b)
	}
	probe()
	for round := 0; round < 4; round++ {
		for _, p := range properties.All {
			vid := vids[(round+len(p))%len(vids)]
			rep, err := cu.AttestReport(vid, p)
			if err != nil {
				t.Fatalf("attest %s %s: %v", vid, p, err)
			}
			keep(rep)
			probe()
		}
	}
	if err := cu.StartPeriodic(vids[0], properties.RuntimeIntegrity, time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		tb.RunFor(2 * time.Second)
		probe()
	}
	if _, err := cu.StopPeriodic(vids[0], properties.RuntimeIntegrity); err != nil {
		t.Fatal(err)
	}
	for _, vid := range vids {
		srv, err := tb.ServerOf(vid)
		if err != nil {
			t.Fatal(err)
		}
		owner, _, _ := tb.Ring.Lookup(vid)
		rep, err := tb.shardByName[owner].Appraise(wire.AppraisalRequest{
			Vid: vid, ServerID: srv.Name(), Prop: properties.RuntimeIntegrity, N2: cryptoutil.MustNonce(),
		})
		if err != nil {
			t.Fatal(err)
		}
		keep(rep)
		probe()
	}
	if issued := tb.PCA.CertStats().Issued; uint64(len(avks)) != issued || issued < 4 {
		t.Fatalf("probes saw %d attestation keys, the pCA certified %d (want equal, several rotations)", len(avks), issued)
	}

	entries, err := tb.Ledger.Query(ledger.Filter{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b := []byte(fmt.Sprintf("%s|%s|%s|%s|%s", e.Kind, e.Vid, e.Prop, e.Trace, e.Payload))
		if e.Kind != ledger.KindCertIssue {
			outputs = append(outputs, b)
			continue
		}
		for name := range tb.Servers {
			if e.Vid != "" || bytes.Contains(b, []byte(name)) {
				t.Fatalf("cert-issue entry names a server or VM: %s", b)
			}
		}
	}
	traces := tb.Obs.Traces(obs.TraceFilter{})
	if len(traces) == 0 {
		t.Fatal("no traces recorded")
	}
	spans, err := json.Marshal(traces)
	if err != nil {
		t.Fatal(err)
	}
	outputs = append(outputs, spans)

	needles := [][]byte{[]byte("anon-")}
	for avk := range avks {
		raw := []byte(avk)
		needles = append(needles, raw,
			[]byte(hex.EncodeToString(raw)),
			[]byte(base64.RawStdEncoding.EncodeToString(raw)),
			[]byte(base64.RawURLEncoding.EncodeToString(raw)))
	}
	for _, out := range outputs {
		for _, needle := range needles {
			if bytes.Contains(out, needle) {
				t.Fatalf("attestation key or certificate subject %q leaked outside hop 4: %q", needle, out)
			}
		}
	}
}
