package monitor

import (
	"crypto/rand"
	"crypto/sha256"
	"sync"
	"testing"
	"time"

	"cloudmonatt/internal/attack"
	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/guest"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/sim"
	"cloudmonatt/internal/tpm"
	"cloudmonatt/internal/trust"
	"cloudmonatt/internal/trust/driver"
	"cloudmonatt/internal/workload"
	"cloudmonatt/internal/xen"
)

type rig struct {
	k  *sim.Kernel
	hv *xen.Hypervisor
	tm *trust.Module
	// aik is the tpm backend's attestation key.
	aik []byte
	m   *Module
}

func newRig(t *testing.T, platform []Component) *rig {
	t.Helper()
	k := sim.NewKernel(21)
	hv := xen.New(k, xen.DefaultConfig(), 1)
	tm, err := trust.NewModule("server-1", 0, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if platform == nil {
		platform = StandardPlatform()
	}
	drv, err := driver.Open(driver.BackendTPM, driver.Config{ServerName: "server-1", Rand: rand.Reader})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(hv, tm.Registers(), drv, platform, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{k: k, hv: hv, tm: tm, aik: drv.AttestationKey(), m: m}
}

func (r *rig) addVM(t *testing.T, vid string, prog xen.Program, g *guest.OS) *xen.Domain {
	t.Helper()
	d := r.hv.NewDomain(vid, 256, 0, prog)
	d.WakeAll()
	if err := r.m.AddVM(&VM{Vid: vid, Domain: d, Guest: g, ImageDigest: sha256.Sum256([]byte(vid))}); err != nil {
		t.Fatal(err)
	}
	return d
}

func (r *rig) advance(d sim.Time) { r.k.RunUntil(r.k.Now() + d) }

func TestAddRemoveVM(t *testing.T) {
	r := newRig(t, nil)
	r.addVM(t, "vm-1", workload.Idle(), guest.NewOS())
	if err := r.m.AddVM(&VM{Vid: "vm-1"}); err == nil {
		t.Fatal("duplicate VM registered")
	}
	r.m.RemoveVM("vm-1")
	if _, err := r.m.CollectTaskList("vm-1"); err == nil {
		t.Fatal("removed VM still introspectable")
	}
}

func TestTaskListSeesRootkit(t *testing.T) {
	r := newRig(t, nil)
	g := guest.NewOS()
	g.InfectRootkit("stealth-miner")
	r.addVM(t, "vm-1", workload.Idle(), g)
	meas, err := r.m.CollectTaskList("vm-1")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, name := range meas.Tasks {
		if name == "stealth-miner" {
			found = true
		}
	}
	if !found {
		t.Fatal("VMI did not surface the hidden process")
	}
}

func TestProfileMeasuresCPUShare(t *testing.T) {
	r := newRig(t, nil)
	r.addVM(t, "busy", workload.Spinner(5*time.Millisecond), nil)
	r.addVM(t, "lazy", workload.Idle(), nil)
	r.advance(100 * time.Millisecond) // warm up
	for _, tc := range []struct {
		vid string
		lo  float64
		hi  float64
	}{{"busy", 0.95, 1.01}, {"lazy", 0, 0.01}} {
		if err := r.m.StartProfile(tc.vid); err != nil {
			t.Fatal(err)
		}
		r.advance(time.Second)
		meas, err := r.m.CollectProfile(tc.vid)
		if err != nil {
			t.Fatal(err)
		}
		share := float64(meas.CPUTime) / float64(meas.WallTime)
		if share < tc.lo || share > tc.hi {
			t.Errorf("%s share %.3f outside [%v,%v]", tc.vid, share, tc.lo, tc.hi)
		}
	}
}

func TestProfileStoresRegister(t *testing.T) {
	r := newRig(t, nil)
	r.addVM(t, "busy", workload.Spinner(5*time.Millisecond), nil)
	r.m.StartProfile("busy")
	r.advance(500 * time.Millisecond)
	meas, err := r.m.CollectProfile("busy")
	if err != nil {
		t.Fatal(err)
	}
	reg, err := r.tm.Registers().Read(CPUTimeRegister)
	if err != nil {
		t.Fatal(err)
	}
	if reg != uint64(meas.CPUTime/time.Microsecond) {
		t.Fatalf("CPU_measure register %d != measurement %v", reg, meas.CPUTime)
	}
}

func TestCollectWithoutStartFails(t *testing.T) {
	r := newRig(t, nil)
	r.addVM(t, "vm", workload.Idle(), nil)
	if _, err := r.m.CollectProfile("vm"); err == nil {
		t.Fatal("profile collected without a window")
	}
	if _, err := r.m.CollectIntervalHistogram("vm"); err == nil {
		t.Fatal("histogram collected without a watch")
	}
	if err := r.m.StartProfile("ghost"); err == nil {
		t.Fatal("profile started for unknown VM")
	}
}

func TestHistogramBenignSpinnerPeaksAt30ms(t *testing.T) {
	r := newRig(t, nil)
	// Two CPU-bound co-tenants: each runs full 30ms timeslices.
	r.addVM(t, "benign", workload.Spinner(50*time.Millisecond), nil)
	r.addVM(t, "other", workload.Spinner(50*time.Millisecond), nil)
	r.advance(200 * time.Millisecond)
	r.m.StartIntervalWatch("benign")
	r.advance(2 * time.Second)
	meas, err := r.m.CollectIntervalHistogram("benign")
	if err != nil {
		t.Fatal(err)
	}
	var total, long uint64
	argmax := 0
	for i, c := range meas.Counters {
		total += c
		if i >= 9 { // intervals of 10ms and above
			long += c
		}
		if c > meas.Counters[argmax] {
			argmax = i
		}
	}
	if total == 0 {
		t.Fatal("no intervals observed")
	}
	// Benign CPU-bound VMs run long intervals: credit preemptions split some
	// timeslices at tick/accounting boundaries, but the mode stays at the
	// 30ms default interval and short symbol-like intervals are absent.
	if float64(long)/float64(total) < 0.6 {
		t.Fatalf("benign spinner: only %d of %d intervals are >=10ms (histogram %v)", long, total, meas.Counters)
	}
	if argmax != HistogramBins-1 {
		t.Fatalf("benign spinner: modal bin %d, want %d (histogram %v)", argmax, HistogramBins-1, meas.Counters)
	}
}

func TestHistogramCovertSenderIsBimodal(t *testing.T) {
	r := newRig(t, nil)
	var bits []attack.Bit
	for i := 0; i < 64; i++ {
		bits = append(bits, attack.Bit(i%2))
	}
	sender := attack.NewCovertSender(bits, true)
	recvDom := r.hv.NewDomain("receiver", 256, 0, workload.Spinner(200*time.Microsecond))
	recvDom.WakeAll()
	r.addVM(t, "victim", sender, guest.NewOS())
	r.advance(200 * time.Millisecond)
	r.m.StartIntervalWatch("victim")
	r.advance(2 * time.Second)
	meas, err := r.m.CollectIntervalHistogram("victim")
	if err != nil {
		t.Fatal(err)
	}
	// Expect mass concentrated around the 3ms and 7ms symbol bins.
	short := meas.Counters[1] + meas.Counters[2] + meas.Counters[3]
	long := meas.Counters[5] + meas.Counters[6] + meas.Counters[7]
	var total uint64
	for _, c := range meas.Counters {
		total += c
	}
	if total == 0 {
		t.Fatal("no intervals observed")
	}
	if float64(short)/float64(total) < 0.25 || float64(long)/float64(total) < 0.25 {
		t.Fatalf("expected two symbol peaks; histogram = %v", meas.Counters)
	}
	// The registers hold the same counts.
	snap := r.tm.Registers().Snapshot()
	for i := 0; i < HistogramBins; i++ {
		if snap[i] != meas.Counters[i] {
			t.Fatalf("register %d = %d, measurement %d", i, snap[i], meas.Counters[i])
		}
	}
}

func TestPlatformQuoteVerifies(t *testing.T) {
	r := newRig(t, nil)
	nonce := cryptoutil.MustNonce()
	meas, err := r.m.PlatformEvidence("vm-1", properties.KindPlatformQuote, nonce, 0)
	if err != nil {
		t.Fatal(err)
	}
	q := &tpm.Quote{Nonce: nonce, Sig: meas.QuoteSig}
	for i, p := range meas.QuotePCR {
		q.PCRs = append(q.PCRs, int(p))
		q.Values = append(q.Values, meas.QuoteVal[i])
	}
	if err := tpm.VerifyQuote(q, r.aik, nonce); err != nil {
		t.Fatalf("platform quote does not verify: %v", err)
	}
	if len(meas.LogNames) < len(StandardPlatform()) {
		t.Fatalf("measurement log too short: %v", meas.LogNames)
	}
}

func TestImageDigest(t *testing.T) {
	r := newRig(t, nil)
	r.addVM(t, "vm-7", workload.Idle(), nil)
	meas, err := r.m.ImageDigest("vm-7")
	if err != nil {
		t.Fatal(err)
	}
	if meas.Digest != sha256.Sum256([]byte("vm-7")) {
		t.Fatal("image digest differs from registration")
	}
	if _, err := r.m.ImageDigest("ghost"); err == nil {
		t.Fatal("digest for unknown VM")
	}
}

func TestMonitorKernelCollect(t *testing.T) {
	r := newRig(t, nil)
	r.addVM(t, "vm", workload.Spinner(5*time.Millisecond), guest.NewOS())
	req, err := driver.MapToMeasurements(driver.BackendTPM, properties.CPUAvailability)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := r.m.Collect("vm", req, cryptoutil.MustNonce(), 0, r.advance)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].Kind != properties.KindCPUTime {
		t.Fatalf("collected %+v", ms)
	}
	if ms[0].WallTime != properties.DefaultWindow {
		t.Fatalf("window %v, want %v", ms[0].WallTime, properties.DefaultWindow)
	}
}

func TestMonitorKernelWindowedNeedsDriver(t *testing.T) {
	r := newRig(t, nil)
	r.addVM(t, "vm", workload.Idle(), nil)
	req, _ := driver.MapToMeasurements(driver.BackendTPM, properties.CovertChannelFreedom)
	if _, err := r.m.Collect("vm", req, cryptoutil.MustNonce(), 0, nil); err == nil {
		t.Fatal("windowed collection without clock driver succeeded")
	}
}

func TestMonitorKernelRejectsUnknownKind(t *testing.T) {
	r := newRig(t, nil)
	r.addVM(t, "vm", workload.Idle(), nil)
	req := properties.Request{Kinds: []properties.MeasurementKind{"bogus"}}
	if _, err := r.m.Collect("vm", req, cryptoutil.MustNonce(), 0, r.advance); err == nil {
		t.Fatal("bogus measurement kind accepted")
	}
}

func TestCustomCollectorThroughMonitorKernel(t *testing.T) {
	const kind properties.MeasurementKind = "custom-probe"
	r := newRig(t, nil)
	drv, err := driver.Open(driver.BackendTPM, driver.Config{ServerName: "server-1", Rand: rand.Reader})
	if err != nil {
		t.Fatal(err)
	}
	r.m, err = New(r.hv, r.tm.Registers(), drv, StandardPlatform(), map[properties.MeasurementKind]Collector{
		kind: func(vm *VM, k properties.MeasurementKind, n [16]byte) (properties.Measurement, error) {
			return properties.Measurement{Kind: k, Tasks: []string{vm.Vid}}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r.addVM(t, "vm-c", workload.Idle(), guest.NewOS())
	ms, err := r.m.Collect("vm-c", properties.Request{Kinds: []properties.MeasurementKind{kind}}, cryptoutil.MustNonce(), 0, r.advance)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].Kind != kind || ms[0].Tasks[0] != "vm-c" {
		t.Fatalf("custom collection = %+v", ms)
	}
}

func TestBusWatchBinsLockTrain(t *testing.T) {
	r := newRig(t, nil)
	var bits []attack.Bit
	for i := 0; i < 16; i++ {
		bits = append(bits, attack.Bit(i%2))
	}
	r.addVM(t, "vm-b", attack.NewBusCovertSender(bits, true), nil)
	r.advance(100 * time.Millisecond)
	if err := r.m.StartBusWatch("vm-b", time.Second); err != nil {
		t.Fatal(err)
	}
	r.advance(time.Second)
	meas, err := r.m.CollectBusTrace("vm-b")
	if err != nil {
		t.Fatal(err)
	}
	if meas.Kind != properties.KindBusLockTrace || len(meas.Counters) != HistogramBins {
		t.Fatalf("measurement shape: %+v", meas)
	}
	var total uint64
	for _, c := range meas.Counters {
		total += c
	}
	// 100 slots/s, half "1" at 60 locks => ~3000 locks over the window.
	if total < 2000 || total > 4000 {
		t.Fatalf("bus trace total %d, want ~3000", total)
	}
	if _, err := r.m.CollectBusTrace("vm-b"); err == nil {
		t.Fatal("double collect succeeded")
	}
	if err := r.m.StartBusWatch("ghost", time.Second); err == nil {
		t.Fatal("bus watch armed for unknown VM")
	}
}

func TestBusWatchIdleVMIsQuiet(t *testing.T) {
	r := newRig(t, nil)
	r.addVM(t, "vm-q", workload.Idle(), nil)
	if err := r.m.StartBusWatch("vm-q", time.Second); err != nil {
		t.Fatal(err)
	}
	r.advance(time.Second)
	meas, err := r.m.CollectBusTrace("vm-q")
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range meas.Counters {
		if c != 0 {
			t.Fatalf("idle VM has %d locks in bin %d", c, i)
		}
	}
}

// TestUnarmedMonitorTakesNoLock pins the scheduler-side fast path: while no
// watch is armed the Module has no observer registered, so run segments and
// bus-lock counts never reach its mutex. The test holds that mutex across an
// advance that would deliver both kinds of callback; taking it would
// deadlock.
func TestUnarmedMonitorTakesNoLock(t *testing.T) {
	r := newRig(t, nil)
	svc, err := workload.NewService("file")
	if err != nil {
		t.Fatal(err)
	}
	d := r.addVM(t, "vm-1", svc, nil)
	r.m.mu.Lock()
	advanced := make(chan struct{})
	go func() {
		defer close(advanced)
		r.advance(500 * time.Millisecond)
	}()
	select {
	case <-advanced:
		r.m.mu.Unlock()
	case <-time.After(30 * time.Second):
		r.m.mu.Unlock()
		<-advanced
		t.Fatal("scheduler callbacks block on the monitor's mutex with nothing armed")
	}
	if d.TotalRuntime() == 0 {
		t.Fatal("the guest never ran, so no segment was delivered")
	}

	// Armed, the same callbacks must arrive.
	if err := r.m.StartIntervalWatch("vm-1"); err != nil {
		t.Fatal(err)
	}
	r.advance(500 * time.Millisecond)
	meas, err := r.m.CollectIntervalHistogram("vm-1")
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, c := range meas.Counters {
		total += c
	}
	if total == 0 {
		t.Fatal("armed watch saw no intervals")
	}
	if r.m.unobserveSegs != nil || r.m.unobserveBus != nil {
		t.Fatal("observers still registered after the only watch was collected")
	}
}

// TestWatchesUnderConcurrentAdvance arms, collects and removes watches from
// one goroutine while another advances the scheduler, which is what a cloud
// server's RPC handlers do to each other. Both hold kernelMu for each step,
// as both hold Server.mu there. Run under -race: registering and removing
// the observers must not let a callback touch a watch unsynchronised.
func TestWatchesUnderConcurrentAdvance(t *testing.T) {
	r := newRig(t, nil)
	var kernelMu sync.Mutex
	locked := func(f func() error) {
		t.Helper()
		kernelMu.Lock()
		defer kernelMu.Unlock()
		if err := f(); err != nil {
			t.Fatal(err)
		}
	}
	vids := []string{"vm-1", "vm-2", "vm-3", "vm-4"}
	for _, vid := range vids {
		svc, err := workload.NewService("file")
		if err != nil {
			t.Fatal(err)
		}
		r.addVM(t, vid, svc, nil)
	}
	stop, advanced := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(advanced)
		for {
			select {
			case <-stop:
				return
			default:
				kernelMu.Lock()
				r.advance(10 * time.Millisecond)
				kernelMu.Unlock()
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		vid := vids[i%len(vids)]
		locked(func() error { return r.m.StartIntervalWatch(vid) })
		if i%3 == 0 {
			// Leave this one armed for RemoveVM or a later re-arm to clear.
			continue
		}
		locked(func() error { _, err := r.m.CollectIntervalHistogram(vid); return err })
		if i == 1000 {
			locked(func() error { r.m.RemoveVM(vids[len(vids)-1]); return nil })
			vids = vids[:len(vids)-1]
		}
	}
	close(stop)
	<-advanced
	for _, vid := range vids {
		r.m.RemoveVM(vid)
	}
	if r.m.unobserveSegs != nil || r.m.unobserveBus != nil {
		t.Fatal("observers still registered with every VM removed")
	}
}
