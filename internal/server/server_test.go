package server

import (
	"crypto/rand"
	"crypto/sha256"
	"errors"
	mathrand "math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/image"
	"cloudmonatt/internal/pca"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/sim"
	"cloudmonatt/internal/trust"
	"cloudmonatt/internal/trust/driver"
	"cloudmonatt/internal/vclock"
	"cloudmonatt/internal/wire"
	"cloudmonatt/internal/xen"
)

type rig struct {
	clock *vclock.Clock
	ca    *pca.PCA
	srv   *Server
}

func newServer(t testing.TB, name string, clock *vclock.Clock, certifier Certifier) *Server {
	t.Helper()
	srv, err := New(Config{
		Name:      name,
		Clock:     clock,
		PCPUs:     2,
		Capacity:  Capacity{VCPUs: 4, MemoryMB: 16384, DiskGB: 200},
		Certifier: certifier,
		Rand:      rand.Reader,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func newRig(t *testing.T) *rig {
	t.Helper()
	ca, err := pca.New("pca", rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	clock := vclock.New(sim.NewKernel(17))
	srv := newServer(t, "srv-1", clock, ca)
	ca.RegisterServer(srv.Name(), srv.Identity().Public())
	return &rig{clock: clock, ca: ca, srv: srv}
}

func smallSpec(vid, workload string) LaunchSpec {
	f, _ := image.FlavorByName("small")
	return LaunchSpec{
		Vid:         vid,
		ImageName:   "cirros",
		ImageDigest: sha256.Sum256([]byte("img")),
		Flavor:      f,
		Workload:    workload,
		Pin:         1,
	}
}

func TestLaunchAndInfo(t *testing.T) {
	r := newRig(t)
	if err := r.srv.Launch(smallSpec("vm-1", "database")); err != nil {
		t.Fatal(err)
	}
	r.clock.Advance(time.Second)
	info, err := r.srv.Info("vm-1")
	if err != nil {
		t.Fatal(err)
	}
	if info.Runtime <= 0 {
		t.Fatal("launched VM accumulated no runtime")
	}
	if info.State != "running" {
		t.Fatalf("state %q", info.State)
	}
}

func TestLaunchValidation(t *testing.T) {
	r := newRig(t)
	if err := r.srv.Launch(smallSpec("vm-1", "database")); err != nil {
		t.Fatal(err)
	}
	if err := r.srv.Launch(smallSpec("vm-1", "database")); err == nil {
		t.Fatal("duplicate Vid accepted")
	}
	if err := r.srv.Launch(smallSpec("vm-2", "no-such-workload")); err == nil {
		t.Fatal("unknown workload accepted")
	}
	big := smallSpec("vm-3", "idle")
	big.Flavor.VCPUs = 99
	if err := r.srv.Launch(big); err == nil {
		t.Fatal("over-capacity launch accepted")
	}
}

func TestCapacityAccounting(t *testing.T) {
	r := newRig(t)
	free0 := r.srv.Free()
	if err := r.srv.Launch(smallSpec("vm-1", "idle")); err != nil {
		t.Fatal(err)
	}
	free1 := r.srv.Free()
	if free1.VCPUs != free0.VCPUs-1 {
		t.Fatalf("vCPU accounting: %d -> %d", free0.VCPUs, free1.VCPUs)
	}
	if err := r.srv.Terminate("vm-1"); err != nil {
		t.Fatal(err)
	}
	if r.srv.Free() != free0 {
		t.Fatal("capacity not released on terminate")
	}
}

func TestSuspendResume(t *testing.T) {
	r := newRig(t)
	if err := r.srv.Launch(smallSpec("vm-1", "spinner")); err != nil {
		t.Fatal(err)
	}
	r.clock.Advance(200 * time.Millisecond)
	if err := r.srv.Suspend("vm-1"); err != nil {
		t.Fatal(err)
	}
	info, _ := r.srv.Info("vm-1")
	at := info.Runtime
	r.clock.Advance(500 * time.Millisecond)
	info, _ = r.srv.Info("vm-1")
	if info.Runtime != at {
		t.Fatal("suspended VM kept running")
	}
	if err := r.srv.Resume("vm-1"); err != nil {
		t.Fatal(err)
	}
	if err := r.srv.Resume("vm-1"); err == nil {
		t.Fatal("double resume accepted")
	}
	r.clock.Advance(500 * time.Millisecond)
	info, _ = r.srv.Info("vm-1")
	if info.Runtime <= at {
		t.Fatal("resumed VM did not run")
	}
}

func TestMigrateOut(t *testing.T) {
	r := newRig(t)
	spec := smallSpec("vm-1", "database")
	if err := r.srv.Launch(spec); err != nil {
		t.Fatal(err)
	}
	out, err := r.srv.MigrateOut("vm-1")
	if err != nil {
		t.Fatal(err)
	}
	if out.Vid != spec.Vid || out.Workload != spec.Workload {
		t.Fatalf("migrated spec %+v", out)
	}
	if _, err := r.srv.Info("vm-1"); err == nil {
		t.Fatal("VM still present after migrate-out")
	}
}

func TestMeasureProducesVerifiableEvidence(t *testing.T) {
	r := newRig(t)
	if err := r.srv.Launch(smallSpec("vm-1", "database")); err != nil {
		t.Fatal(err)
	}
	r.clock.Advance(500 * time.Millisecond)
	req, err := driver.MapToMeasurements(driver.BackendTPM, properties.CPUAvailability)
	if err != nil {
		t.Fatal(err)
	}
	n3 := cryptoutil.MustNonce()
	before := r.clock.Now()
	ev, err := r.srv.Measure(wire.MeasureRequest{Vid: "vm-1", Req: req, N3: n3})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.VerifyEvidence(ev, r.ca.Name(), r.ca.PublicKey(), "vm-1", req, n3); err != nil {
		t.Fatalf("evidence does not verify: %v", err)
	}
	if got := r.clock.Now() - before; got < req.Window {
		t.Fatalf("windowed measurement advanced %v, want >= %v", got, req.Window)
	}
	if strings.Contains(ev.Cert.Subject, "srv-1") {
		t.Fatal("certificate reveals the server identity")
	}
}

func TestMeasureUnknownVM(t *testing.T) {
	r := newRig(t)
	req, _ := driver.MapToMeasurements(driver.BackendTPM, properties.RuntimeIntegrity)
	if _, err := r.srv.Measure(wire.MeasureRequest{Vid: "ghost", Req: req, N3: cryptoutil.MustNonce()}); err == nil {
		t.Fatal("measured a nonexistent VM")
	}
}

// measureRT takes one runtime-integrity measurement (no window, so no
// virtual time passes) and checks the evidence end to end.
func (r *rig) measureRT(t *testing.T, vid string) (*wire.Evidence, error) {
	t.Helper()
	req, err := driver.MapToMeasurements(driver.BackendTPM, properties.RuntimeIntegrity)
	if err != nil {
		t.Fatal(err)
	}
	n3 := cryptoutil.MustNonce()
	ev, err := r.srv.Measure(wire.MeasureRequest{Vid: vid, Req: req, N3: n3})
	if err != nil {
		return nil, err
	}
	if err := wire.VerifyEvidence(ev, r.ca.Name(), r.ca.PublicKey(), vid, req, n3); err != nil {
		t.Errorf("evidence for %s does not verify: %v", vid, err)
	}
	return ev, nil
}

// TestSessionRotatesEveryEightMeasurements pins the one session policy: a
// server signs exactly sessionUses consecutive measurements, of whichever
// of its VMs, under one certified key, then rotates; servers never share a
// key.
func TestSessionRotatesEveryEightMeasurements(t *testing.T) {
	r := newRig(t)
	vids := []string{"vm-1", "vm-2", "vm-3"}
	for _, vid := range vids {
		if err := r.srv.Launch(smallSpec(vid, "idle")); err != nil {
			t.Fatal(err)
		}
	}
	var evs []*wire.Evidence
	for i := 0; i < sessionUses+1; i++ {
		ev, err := r.measureRT(t, vids[i%len(vids)])
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
	first, ninth := evs[0], evs[sessionUses]
	for i, ev := range evs[:sessionUses] {
		if !cryptoutil.KeyEqual(ev.AVK, first.AVK) || ev.Cert.Serial != first.Cert.Serial {
			t.Fatalf("measurement %d (VM %s): AVK/serial %d differ from measurement 1's serial %d inside one window",
				i+1, ev.Vid, ev.Cert.Serial, first.Cert.Serial)
		}
	}
	if cryptoutil.KeyEqual(ninth.AVK, first.AVK) {
		t.Fatalf("measurement %d still signed under the first session key", sessionUses+1)
	}
	if ninth.Cert.Serial <= first.Cert.Serial {
		t.Fatalf("rotated certificate serial %d not above %d", ninth.Cert.Serial, first.Cert.Serial)
	}
	if got := r.ca.CertStats(); got.Issued != 2 || got.CacheHits != 0 {
		t.Fatalf("pCA stats %+v after %d measurements, want 2 issued / 0 cache hits", got, sessionUses+1)
	}

	other := &rig{clock: r.clock, ca: r.ca, srv: newServer(t, "srv-2", r.clock, r.ca)}
	r.ca.RegisterServer(other.srv.Name(), other.srv.Identity().Public())
	if err := other.srv.Launch(smallSpec("vm-9", "idle")); err != nil {
		t.Fatal(err)
	}
	ev, err := other.measureRT(t, "vm-9")
	if err != nil {
		t.Fatal(err)
	}
	if cryptoutil.KeyEqual(ev.AVK, first.AVK) || cryptoutil.KeyEqual(ev.AVK, ninth.AVK) {
		t.Fatal("two servers share an attestation key")
	}
}

// TestConcurrentMeasuresShareImmutableSession is the regression test for
// the data race on a reused session's certificate (written per measurement
// under sessMu, read unlocked by wire.BuildEvidence): a published session
// is never written again, and counting at hand-out makes rotation exact
// under concurrency. Run with -race.
func TestConcurrentMeasuresShareImmutableSession(t *testing.T) {
	r := newRig(t)
	if err := r.srv.Launch(smallSpec("vm-1", "idle")); err != nil {
		t.Fatal(err)
	}
	const workers, each = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := r.measureRT(t, "vm-1"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	want := uint64((workers*each + sessionUses - 1) / sessionUses)
	if got := r.ca.CertStats().Issued; got != want {
		t.Fatalf("pCA issued %d certificates for %d measurements, want exactly %d", got, workers*each, want)
	}
}

// flakyCertifier fails every certification while down is set.
type flakyCertifier struct {
	ca    *pca.PCA
	down  atomic.Bool
	calls atomic.Int64
}

var errPCADown = errors.New("pCA unreachable")

func (f *flakyCertifier) Certify(req *trust.CertRequest) (*cryptoutil.Certificate, error) {
	f.calls.Add(1)
	if f.down.Load() {
		return nil, errPCADown
	}
	return f.ca.Certify(req)
}

// TestCertifierOutageStopsServerOnlyAtRotation: a server that holds its
// certificate rides out a pCA outage until the window ends, keeps nothing
// from a failed rotation, and retries on the very next call.
func TestCertifierOutageStopsServerOnlyAtRotation(t *testing.T) {
	ca, err := pca.New("pca", rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	cert := &flakyCertifier{ca: ca}
	clock := vclock.New(sim.NewKernel(17))
	r := &rig{clock: clock, ca: ca, srv: newServer(t, "srv-1", clock, cert)}
	ca.RegisterServer(r.srv.Name(), r.srv.Identity().Public())
	if err := r.srv.Launch(smallSpec("vm-1", "idle")); err != nil {
		t.Fatal(err)
	}
	first, err := r.measureRT(t, "vm-1")
	if err != nil {
		t.Fatal(err)
	}
	cert.down.Store(true)
	for i := 2; i <= sessionUses; i++ {
		ev, err := r.measureRT(t, "vm-1")
		if err != nil {
			t.Fatalf("measurement %d inside the window failed during the pCA outage: %v", i, err)
		}
		if !cryptoutil.KeyEqual(ev.AVK, first.AVK) {
			t.Fatalf("measurement %d changed key inside the window", i)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := r.measureRT(t, "vm-1"); !errors.Is(err, errPCADown) {
			t.Fatalf("rotation during the outage: err = %v, want the certification error", err)
		}
	}
	if got := cert.calls.Load(); got != 3 {
		t.Fatalf("certifier called %d times, want 3 (one per rotation attempt, none inside the window)", got)
	}
	cert.down.Store(false)
	ev, err := r.measureRT(t, "vm-1")
	if err != nil {
		t.Fatalf("recovered pCA not retried on the next call: %v", err)
	}
	if cryptoutil.KeyEqual(ev.AVK, first.AVK) {
		t.Fatal("expired session key handed out after a failed rotation")
	}
	// Nothing half-minted was kept: the keys of the two failed attempts were
	// never certified, so exactly two certificates exist.
	if got := ca.CertStats().Issued; got != 2 {
		t.Fatalf("pCA issued %d certificates, want 2", got)
	}
}

// TestDom0AbsorbsCollectionCost: every measurement costs the host VM, not
// the guest, its 200 µs — and Dom0 starts on it when the IPI lands, not at
// its next poll.
func TestDom0AbsorbsCollectionCost(t *testing.T) {
	r := newRig(t)
	if err := r.srv.Launch(smallSpec("vm-1", "idle")); err != nil {
		t.Fatal(err)
	}
	var starts []sim.Time
	r.srv.hv.Observe(xen.RunSegmentFunc(func(v *xen.VCPU, start, end sim.Time) {
		if v.Domain() == r.srv.dom0 {
			starts = append(starts, start)
		}
	}))
	req, _ := driver.MapToMeasurements(driver.BackendTPM, properties.CPUAvailability)
	ipi := r.srv.hv.Config().IPILatency
	for i := 0; i < 5; i++ {
		asked := r.clock.Now()
		if _, err := r.srv.Measure(wire.MeasureRequest{Vid: "vm-1", Req: req, N3: cryptoutil.MustNonce()}); err != nil {
			t.Fatal(err)
		}
		if len(starts) != i+1 {
			t.Fatalf("measurement %d: Dom0 ran %d bursts in all, want one per measurement", i+1, len(starts))
		}
		if wait := starts[i] - asked; wait > ipi {
			t.Fatalf("measurement %d: Dom0 started %v after Measure, want within the IPI latency %v", i+1, wait, ipi)
		}
	}
	r.clock.Advance(time.Second)
	if got := r.srv.dom0.TotalRuntime(); got != 5*dom0CostPerCollection {
		t.Fatalf("Dom0 ran %v for 5 collections, want %v", got, 5*dom0CostPerCollection)
	}
}

// TestIdleServerRunsNoDom0Bursts: with no guest and no measurement a server's
// kernel fires its pCPUs' ticks and accounting passes and nothing else; Dom0
// sleeps on its event channel.
func TestIdleServerRunsNoDom0Bursts(t *testing.T) {
	r := newRig(t)
	r.clock.Advance(time.Second)
	k := r.srv.hv.Kernel()
	before := k.Fired()
	r.clock.Advance(time.Second)
	cfg := r.srv.hv.Config()
	perPCPU := uint64(time.Second/cfg.TickPeriod + time.Second/cfg.AcctPeriod)
	// Tick jitter and the accounting phase can each move one event across
	// an edge of the second.
	if fired, want := k.Fired()-before, 2*perPCPU; fired < want-4 || fired > want+4 {
		t.Fatalf("idle server fired %d events in a virtual second, want the %d ticks and accounting passes of 2 pCPUs", fired, want)
	}
	if v := r.srv.dom0.VCPUs()[0]; v.Dispatches() != 0 || v.TotalRuntime() != 0 {
		t.Fatalf("idle Dom0 was dispatched %d times and ran %v", v.Dispatches(), v.TotalRuntime())
	}
}

// TestDom0KickLosesNoWork: work queued while Dom0 is already running, or
// runnable behind a guest, wakes nothing — the IPI is spurious — and is
// still done: Dom0 halts only on finding its queue empty. A spinner shares
// pCPU 0 and the kicks ask for more than the pCPU has, so Dom0 is caught in
// every state.
func TestDom0KickLosesNoWork(t *testing.T) {
	r := newRig(t)
	spin := smallSpec("vm-1", "spinner")
	spin.Pin = 0
	if err := r.srv.Launch(spin); err != nil {
		t.Fatal(err)
	}
	const kicks = 3000
	rng := mathrand.New(mathrand.NewSource(1))
	seen := map[xen.VCPUState]int{}
	v := r.srv.dom0.VCPUs()[0]
	for i := 0; i < kicks; i++ {
		r.srv.mu.Lock()
		seen[v.State()]++
		r.srv.kickDom0(dom0CostPerCollection)
		r.srv.mu.Unlock()
		r.clock.Advance(time.Duration(rng.Intn(300)) * time.Microsecond)
	}
	for _, st := range []xen.VCPUState{xen.StateBlocked, xen.StateRunnable, xen.StateRunning} {
		if seen[st] == 0 {
			t.Fatalf("no kick found Dom0 %v (%v); the scenario no longer covers it", st, seen)
		}
	}
	r.clock.Advance(5 * time.Second)
	if got, want := r.srv.dom0.TotalRuntime(), kicks*dom0CostPerCollection; got != want {
		t.Fatalf("Dom0 ran %v for %d kicks, want %v", got, kicks, want)
	}
	if v.State() != xen.StateBlocked || r.srv.dom0Prog.pending != 0 {
		t.Fatalf("drained Dom0 is %v with %v pending, want halted and empty", v.State(), r.srv.dom0Prog.pending)
	}
}

func TestAttackWorkloads(t *testing.T) {
	r := newRig(t)
	spec := smallSpec("vm-a", "attack:cpu-starver")
	spec.Flavor.VCPUs = 2
	if err := r.srv.Launch(spec); err != nil {
		t.Fatal(err)
	}
	if err := r.srv.Launch(smallSpec("vm-c", "attack:covert-sender")); err != nil {
		t.Fatal(err)
	}
	r.clock.Advance(500 * time.Millisecond)
	info, _ := r.srv.Info("vm-a")
	if info.Runtime <= 0 {
		t.Fatal("starver attack never ran")
	}
}
