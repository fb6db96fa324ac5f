package attestsrv_test

import (
	"crypto/ed25519"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"cloudmonatt/internal/attestsrv"
	"cloudmonatt/internal/cloudsim"
	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/image"
	"cloudmonatt/internal/interpret"
	"cloudmonatt/internal/ledger"
	"cloudmonatt/internal/obs"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/server"
	"cloudmonatt/internal/trust/driver"
	"cloudmonatt/internal/wire"
)

// fleet drives a testbed below the controller: VMs are put on cloud servers
// and registered with their owning shard directly, so a schedule can hold a
// VM whose image is not the one its customer expects (the launch pipeline
// would reject it) and can name the shard and server of every step.
type fleet struct {
	t      *testing.T
	tb     *cloudsim.Testbed
	golden [32]byte
	flavor image.Flavor
	vms    map[string]string // vid → hosting server
	specs  map[string]server.LaunchSpec
	// attested counts the appraisals asked for.
	attested int
}

func newFleet(t *testing.T, opts cloudsim.Options) *fleet {
	t.Helper()
	tb, err := cloudsim.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := tb.Images.GoldenDigest("cirros")
	if err != nil {
		t.Fatal(err)
	}
	flavor, err := image.FlavorByName("small")
	if err != nil {
		t.Fatal(err)
	}
	return &fleet{t: t, tb: tb, golden: golden, flavor: flavor,
		vms: make(map[string]string), specs: make(map[string]server.LaunchSpec)}
}

// owner is the shard the ring assigns vid to.
func (f *fleet) owner(vid string) *attestsrv.Server {
	f.t.Helper()
	name, _, ok := f.tb.Ring.Lookup(vid)
	for _, as := range f.tb.AttestServers {
		if ok && as.Shard() == name {
			return as
		}
	}
	f.t.Fatalf("no shard owns %s", vid)
	return nil
}

// launch starts vid on a server from the given image digest and registers
// the pristine one as what its customer expects.
func (f *fleet) launch(vid, srv string, digest [32]byte) {
	f.t.Helper()
	spec := server.LaunchSpec{Vid: vid, ImageName: "cirros", ImageDigest: digest, Flavor: f.flavor, Workload: "idle", Pin: -1}
	if err := f.tb.Servers[srv].Launch(spec); err != nil {
		f.t.Fatal(err)
	}
	f.owner(vid).RegisterVM(attestsrv.VMRecord{Vid: vid, ExpectedImage: f.golden})
	f.vms[vid], f.specs[vid] = srv, spec
}

func (f *fleet) terminate(vid string) {
	f.t.Helper()
	if err := f.tb.Servers[f.vms[vid]].Terminate(vid); err != nil {
		f.t.Fatal(err)
	}
	f.owner(vid).ForgetVM(vid)
	delete(f.vms, vid)
	delete(f.specs, vid)
}

func (f *fleet) migrate(vid, dest string) {
	f.t.Helper()
	spec, err := f.tb.Servers[f.vms[vid]].MigrateOut(vid)
	if err != nil {
		f.t.Fatal(err)
	}
	if err := f.tb.Servers[dest].Launch(spec); err != nil {
		f.t.Fatal(err)
	}
	f.vms[vid] = dest
}

// attest appraises vid's startup integrity on its owning shard.
func (f *fleet) attest(vid string) properties.Verdict {
	f.t.Helper()
	f.attested++
	rep, err := f.owner(vid).Appraise(wire.AppraisalRequest{
		Vid: vid, ServerID: f.vms[vid], Prop: properties.StartupIntegrity, N2: cryptoutil.MustNonce(),
	})
	if err != nil {
		f.t.Fatalf("appraising %s on %s: %v", vid, f.vms[vid], err)
	}
	return rep.Verdict
}

// memoryless asks vid's server for its whole log and appraises it with
// nothing remembered: the appraiser as it was before evidence was
// incremental. It also returns how many events that log holds.
func (f *fleet) memoryless(vid string) (properties.Verdict, int) {
	f.t.Helper()
	srv := f.tb.Servers[f.vms[vid]]
	rM, err := driver.MapToMeasurements(driver.BackendTPM, properties.StartupIntegrity)
	if err != nil {
		f.t.Fatal(err)
	}
	n3 := cryptoutil.MustNonce()
	ev, err := srv.Measure(wire.MeasureRequest{Vid: vid, Req: rM, N3: n3})
	if err != nil {
		f.t.Fatal(err)
	}
	v := interpret.Interpret(properties.StartupIntegrity, ev.Measurements, n3, interpret.References{
		ServerAIK:      ed25519.PublicKey(srv.AIK()),
		PlatformGolden: interpret.GoldenPlatform(),
		ExpectedImage:  f.golden,
		Vid:            vid,
	})
	return v, len(ev.Measurements[0].LogNames)
}

// fromZero sums, over every shard, the measurement exchanges that asked for
// a whole log, by why they had to.
func (f *fleet) fromZero() map[string]int64 {
	out := make(map[string]int64)
	for _, as := range f.tb.AttestServers {
		for _, cause := range []string{"no-memory", "entry-unknown", "replay-mismatch"} {
			out[cause] += as.Metrics().Counter("appraise/log-from-zero-" + cause).Value()
		}
	}
	return out
}

// TestStartupVerdictsEqualMemorylessAppraisal is the differential oracle of
// the incremental measurement log: over seeded random schedules of launches
// (one in six from a tampered image), terminations, migrations, shard joins
// and leaves and Attestation Server restarts on three servers (one booted
// from a trojaned hypervisor) and two shards, every startup-integrity
// verdict equals what the memoryless appraiser says of the server's whole
// log at that instant, a shard's memory of a server moves to the end of the
// log with a healthy verdict and not at all with an unhealthy one, and no
// honest log ever fails to replay.
func TestStartupVerdictsEqualMemorylessAppraisal(t *testing.T) {
	attested, unhealthy, from0 := 0, 0, make(map[string]int64)
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			f := newFleet(t, cloudsim.Options{Seed: 200 + seed, Servers: 3, Shards: 2,
				TamperPlatform: map[string]bool{"cloud-server-3": true}})
			rng := rand.New(rand.NewSource(seed))
			servers := []string{"cloud-server-1", "cloud-server-2", "cloud-server-3"}
			tampered := f.golden
			tampered[0] ^= 0xFF
			launchedFrom := make(map[string][32]byte)
			var hosted []string // in launch order, so that a pick is the seed's
			pick := func() (vid string, at int) {
				if len(hosted) == 0 {
					return "", 0
				}
				at = rng.Intn(len(hosted))
				return hosted[at], at
			}
			check := func(vid string) {
				t.Helper()
				shard, srv := f.owner(vid), f.vms[vid]
				before := shard.LogCount(srv)
				got := f.attest(vid)
				want, events := f.memoryless(vid)
				if got.Healthy != want.Healthy || got.Class != want.Class || got.Reason != want.Reason ||
					fmt.Sprint(got.Details) != fmt.Sprint(want.Details) {
					t.Fatalf("%s on %s: verdict %+v, memoryless appraisal of the whole log %+v", vid, srv, got, want)
				}
				wantHealthy := srv != "cloud-server-3" && launchedFrom[vid] == f.golden
				if got.Healthy != wantHealthy {
					t.Fatalf("%s on %s: healthy=%v (%s), want %v", vid, srv, got.Healthy, got.Reason, wantHealthy)
				}
				after := shard.LogCount(srv)
				switch {
				case got.Healthy && after != events:
					t.Fatalf("%s on %s: %d of %d events remembered after a healthy verdict", vid, srv, after, events)
				case !got.Healthy && after != before:
					t.Fatalf("%s on %s: an unhealthy verdict moved the memory from %d to %d events", vid, srv, before, after)
				}
				attested++
				if !got.Healthy {
					unhealthy++
				}
			}
			for step := 0; step < 300; step++ {
				switch op := rng.Intn(100); {
				case op < 25 && len(hosted) < 12:
					vid := fmt.Sprintf("dvm-%03d", len(launchedFrom)+1)
					launchedFrom[vid] = f.golden
					if rng.Intn(6) == 0 {
						launchedFrom[vid] = tampered
					}
					f.launch(vid, servers[rng.Intn(len(servers))], launchedFrom[vid])
					hosted = append(hosted, vid)
					check(vid) // launch stage 5
				case op < 40:
					if vid, at := pick(); vid != "" {
						f.terminate(vid)
						hosted = append(hosted[:at], hosted[at+1:]...)
					}
				case op < 50:
					if vid, _ := pick(); vid != "" {
						if dest := servers[rng.Intn(len(servers))]; dest != f.vms[vid] {
							f.migrate(vid, dest)
							check(vid)
						}
					}
				case op < 55:
					if f.tb.Ring.Size() < 4 {
						if _, _, err := f.tb.JoinShard(); err != nil {
							t.Fatal(err)
						}
					}
				case op < 60:
					if nodes := f.tb.Ring.Nodes(); len(nodes) > 1 {
						if _, err := f.tb.LeaveShard(nodes[rng.Intn(len(nodes))]); err != nil {
							t.Fatal(err)
						}
					}
				case op < 65:
					f.tb.AttestServers[rng.Intn(len(f.tb.AttestServers))].ForgetLogs()
				default:
					if vid, _ := pick(); vid != "" {
						check(vid)
					}
				}
			}
			for cause, n := range f.fromZero() {
				from0[cause] += n
			}
			// However many exchanges it took, an appraisal is one ledger entry.
			entries, err := f.tb.Ledger.Query(ledger.Filter{Kind: ledger.KindAppraisal})
			if err != nil || len(entries) != f.attested {
				t.Fatalf("%d appraisal entries in the ledger for %d appraisals (%v)", len(entries), f.attested, err)
			}
		})
	}
	t.Logf("%d attestations, %d unhealthy, whole logs asked for: %v", attested, unhealthy, from0)
	if attested < 400 || unhealthy < 100 || attested-unhealthy < 100 {
		t.Fatalf("schedules too thin to mean anything: %d attestations, %d unhealthy", attested, unhealthy)
	}
	if from0["replay-mismatch"] != 0 {
		t.Fatalf("%d honest logs did not replay on top of what was remembered", from0["replay-mismatch"])
	}
	if from0["no-memory"] == 0 || from0["entry-unknown"] == 0 {
		t.Fatalf("the schedules never fell back to a whole log for both reasons: %v", from0)
	}
}

// TestConcurrentAppraisalsMoveLogMemoryForward attests two VMs of one server
// from two goroutines while a third keeps launching there: each appraisal
// works from the memory as it was when it asked, so they land out of order,
// and the shard's memory of the server must still never move back, miss or
// draw an unhealthy verdict.
func TestConcurrentAppraisalsMoveLogMemoryForward(t *testing.T) {
	f := newFleet(t, cloudsim.Options{Seed: 210, Servers: 1})
	const srv = "cloud-server-1"
	f.launch("cvm-a", srv, f.golden)
	f.launch("cvm-b", srv, f.golden)
	shard := f.tb.Attest
	stop := make(chan struct{})
	var launcher, attesters sync.WaitGroup
	launcher.Add(1)
	go func() { // every VM it adds is an event neither attested VM owns
		defer launcher.Done()
		spec := f.specs["cvm-a"]
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			spec.Vid = fmt.Sprintf("cvm-%03d", i)
			if err := f.tb.Servers[srv].Launch(spec); err != nil {
				t.Error(err)
				return
			}
			if err := f.tb.Servers[srv].Terminate(spec.Vid); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for _, vid := range []string{"cvm-a", "cvm-b"} {
		vid := vid
		attesters.Add(1)
		go func() {
			defer attesters.Done()
			last := 0
			for i := 0; i < 150; i++ {
				rep, err := shard.Appraise(wire.AppraisalRequest{Vid: vid, ServerID: srv, Prop: properties.StartupIntegrity, N2: cryptoutil.MustNonce()})
				if err != nil {
					t.Error(err)
					return
				}
				if !rep.Verdict.Healthy {
					t.Errorf("%s: %s", vid, rep.Verdict.Reason)
					return
				}
				n := shard.LogCount(srv)
				if n < last {
					t.Errorf("%s: the memory moved back from %d to %d events", vid, last, n)
					return
				}
				last = n
			}
		}()
	}
	attesters.Wait()
	close(stop)
	launcher.Wait()
	from0 := f.fromZero()
	if from0["no-memory"] > 2 || from0["entry-unknown"] != 0 || from0["replay-mismatch"] != 0 {
		t.Fatalf("whole logs asked for: %v, want at most the first two for want of a memory", from0)
	}
	if n := shard.LogCount(srv); n <= 6 {
		t.Fatalf("%d events remembered: the launcher never ran beside the attesters", n)
	}
}

// TestStaleLogMemoryCostsOneWholeLog makes a shard's memory of a server
// wrong, as a reboot of the server would. The next attestation's events do
// not replay on top of it; that is no verdict but a second exchange from
// event 0 inside the same appraisal, visible on its span and in the shard's
// counters, after which the memory is right again.
func TestStaleLogMemoryCostsOneWholeLog(t *testing.T) {
	f := newFleet(t, cloudsim.Options{Seed: 211, Servers: 1})
	const srv = "cloud-server-1"
	f.launch("svm-1", srv, f.golden)
	shard := f.tb.Attest
	if v := f.attest("svm-1"); !v.Healthy {
		t.Fatal(v.Reason)
	}
	shard.StaleLog(srv)
	before := f.tb.Clock.Now()
	if v := f.attest("svm-1"); !v.Healthy {
		t.Fatalf("a stale memory became a verdict: %s", v.Reason)
	}
	twoExchanges := f.tb.Clock.Now() - before
	if from0 := f.fromZero(); from0["replay-mismatch"] != 1 || from0["entry-unknown"] != 0 {
		t.Fatalf("whole logs asked for: %v, want one for a replay mismatch", from0)
	}
	if _, events := f.memoryless("svm-1"); shard.LogCount(srv) != events {
		t.Fatalf("%d events remembered after the whole log, want %d", shard.LogCount(srv), events)
	}
	before = f.tb.Clock.Now()
	if v := f.attest("svm-1"); !v.Healthy {
		t.Fatal(v.Reason)
	}
	if one := f.tb.Clock.Now() - before; twoExchanges <= one {
		t.Fatalf("the appraisal that asked twice took %v of virtual time, one that asked once %v", twoExchanges, one)
	}
	if from0 := f.fromZero(); from0["replay-mismatch"] != 1 {
		t.Fatalf("whole logs asked for after the memory was right again: %v", from0)
	}
	entries, err := f.tb.Ledger.Query(ledger.Filter{Kind: ledger.KindAppraisal})
	if err != nil || len(entries) != 3 {
		t.Fatalf("%d appraisal entries for 3 appraisals (%v)", len(entries), err)
	}
	var refetched []string
	for _, tr := range f.tb.Obs.Traces(obs.TraceFilter{}) {
		for _, sp := range tr.Spans {
			for _, n := range sp.Notes {
				if sp.Name == "appraise" && n.Key == "log-refetch" {
					refetched = append(refetched, n.Value)
				}
			}
		}
	}
	if fmt.Sprint(refetched) != "[replay-mismatch]" {
		t.Fatalf("appraise spans that fell back: %v, want one, for a replay mismatch", refetched)
	}
}
