package interpret

import (
	"crypto/rand"
	"crypto/sha256"
	"testing"
	"time"

	"cloudmonatt/internal/attack"
	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/guest"
	"cloudmonatt/internal/monitor"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/sim"
	"cloudmonatt/internal/trust"
	"cloudmonatt/internal/trust/driver"
	"cloudmonatt/internal/workload"
	"cloudmonatt/internal/xen"
)

// testbed assembles hypervisor + trust + monitor with an optionally
// tampered platform, one VM, and returns the pieces plus references.
type testbed struct {
	k     *sim.Kernel
	hv    *xen.Hypervisor
	tm    *trust.Module
	mon   *monitor.Module
	refs  References
	nonce cryptoutil.Nonce
}

func newTestbed(t *testing.T, platform []monitor.Component) *testbed {
	t.Helper()
	k := sim.NewKernel(33)
	hv := xen.New(k, xen.DefaultConfig(), 1)
	tm, err := trust.NewModule("server-1", 0, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if platform == nil {
		platform = monitor.StandardPlatform()
	}
	drv, err := driver.Open(driver.BackendTPM, driver.Config{ServerName: "server-1", Rand: rand.Reader})
	if err != nil {
		t.Fatal(err)
	}
	mon, err := monitor.New(hv, tm.Registers(), drv, platform, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &testbed{
		k: k, hv: hv, tm: tm, mon: mon,
		nonce: cryptoutil.MustNonce(),
		refs: References{
			ServerAIK:      drv.AttestationKey(),
			PlatformGolden: GoldenPlatform(),
			Vid:            "vm-1",
			MinCPUShare:    0.25,
		},
	}
}

func (tb *testbed) addVM(t *testing.T, prog xen.Program, g *guest.OS, imageData []byte) {
	t.Helper()
	d := tb.hv.NewDomain("vm-1", 256, 0, prog)
	d.WakeAll()
	digest := sha256.Sum256(imageData)
	tb.refs.ExpectedImage = sha256.Sum256([]byte("pristine-image"))
	if err := tb.mon.AddVM(&monitor.VM{Vid: "vm-1", Domain: d, Guest: g, ImageDigest: digest}); err != nil {
		t.Fatal(err)
	}
}

func (tb *testbed) advance(d sim.Time) { tb.k.RunUntil(tb.k.Now() + d) }

func (tb *testbed) collect(t *testing.T, p properties.Property) []properties.Measurement {
	t.Helper()
	req, err := driver.MapToMeasurements(driver.BackendTPM, p)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := tb.mon.Collect("vm-1", req, tb.nonce, 0, tb.advance)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// --- Case study I: startup integrity ---

func TestStartupIntegrityHealthy(t *testing.T) {
	tb := newTestbed(t, nil)
	tb.addVM(t, workload.Idle(), guest.NewOS(), []byte("pristine-image"))
	v := Interpret(properties.StartupIntegrity, tb.collect(t, properties.StartupIntegrity), tb.nonce, tb.refs)
	if !v.Healthy {
		t.Fatalf("pristine platform judged compromised: %v", v)
	}
}

func TestStartupIntegrityDetectsTamperedPlatform(t *testing.T) {
	platform := monitor.StandardPlatform()
	platform[1].Data = []byte("xen-4.2 TROJANED") // hypervisor replaced
	tb := newTestbed(t, platform)
	tb.addVM(t, workload.Idle(), guest.NewOS(), []byte("pristine-image"))
	v := Interpret(properties.StartupIntegrity, tb.collect(t, properties.StartupIntegrity), tb.nonce, tb.refs)
	if v.Healthy {
		t.Fatal("trojaned hypervisor passed startup integrity")
	}
	if v.Details["component"] != "hypervisor" {
		t.Fatalf("wrong component blamed: %v", v.Details)
	}
}

func TestStartupIntegrityDetectsCorruptImage(t *testing.T) {
	tb := newTestbed(t, nil)
	tb.addVM(t, workload.Idle(), guest.NewOS(), []byte("malware-image"))
	v := Interpret(properties.StartupIntegrity, tb.collect(t, properties.StartupIntegrity), tb.nonce, tb.refs)
	if v.Healthy {
		t.Fatal("corrupted VM image passed startup integrity")
	}
}

func TestStartupIntegrityRejectsWrongAIK(t *testing.T) {
	tb := newTestbed(t, nil)
	tb.addVM(t, workload.Idle(), guest.NewOS(), []byte("pristine-image"))
	ms := tb.collect(t, properties.StartupIntegrity)
	refs := tb.refs
	refs.ServerAIK = cryptoutil.MustIdentity("other-aik").Public()
	if v := Interpret(properties.StartupIntegrity, ms, tb.nonce, refs); v.Healthy {
		t.Fatal("quote accepted under foreign AIK")
	}
}

func TestStartupIntegrityRejectsReplayedNonce(t *testing.T) {
	tb := newTestbed(t, nil)
	tb.addVM(t, workload.Idle(), guest.NewOS(), []byte("pristine-image"))
	ms := tb.collect(t, properties.StartupIntegrity)
	if v := Interpret(properties.StartupIntegrity, ms, cryptoutil.MustNonce(), tb.refs); v.Healthy {
		t.Fatal("quote accepted with mismatched nonce")
	}
}

func TestStartupIntegrityRejectsTamperedLog(t *testing.T) {
	tb := newTestbed(t, nil)
	tb.addVM(t, workload.Idle(), guest.NewOS(), []byte("pristine-image"))
	ms := tb.collect(t, properties.StartupIntegrity)
	for i := range ms {
		if ms[i].Kind == properties.KindPlatformQuote {
			ms[i].LogSums[0][0] ^= 1
		}
	}
	if v := Interpret(properties.StartupIntegrity, ms, tb.nonce, tb.refs); v.Healthy {
		t.Fatal("tampered measurement log accepted")
	}
}

func TestStartupIntegrityMissingMeasurements(t *testing.T) {
	if v := StartupIntegrity(nil, cryptoutil.Nonce{}, References{}); v.Healthy {
		t.Fatal("verdict healthy with no measurements")
	}
}

// --- Case study II: runtime integrity ---

func baseAllowlist() []string {
	return []string{"init", "sshd", "cron", "rsyslogd", "agetty", "nginx"}
}

func TestRuntimeIntegrityHealthy(t *testing.T) {
	tb := newTestbed(t, nil)
	g := guest.NewOS()
	g.Spawn("nginx")
	tb.addVM(t, workload.Idle(), g, []byte("pristine-image"))
	tb.refs.TaskAllowlist = baseAllowlist()
	v := Interpret(properties.RuntimeIntegrity, tb.collect(t, properties.RuntimeIntegrity), tb.nonce, tb.refs)
	if !v.Healthy {
		t.Fatalf("clean guest judged infected: %v", v)
	}
}

func TestRuntimeIntegrityDetectsRootkit(t *testing.T) {
	tb := newTestbed(t, nil)
	g := guest.NewOS()
	g.InfectRootkit("stealth-miner")
	tb.addVM(t, workload.Idle(), g, []byte("pristine-image"))
	tb.refs.TaskAllowlist = baseAllowlist()
	v := Interpret(properties.RuntimeIntegrity, tb.collect(t, properties.RuntimeIntegrity), tb.nonce, tb.refs)
	if v.Healthy {
		t.Fatal("rootkit passed runtime integrity")
	}
	if v.Details["tasks"] != "stealth-miner" {
		t.Fatalf("rogue task not named: %v", v.Details)
	}
}

func TestRuntimeIntegrityMissing(t *testing.T) {
	if v := RuntimeIntegrity(nil, References{}); v.Healthy {
		t.Fatal("verdict healthy with no task list")
	}
}

// --- Case study III: covert channel ---

func TestCovertChannelDetected(t *testing.T) {
	tb := newTestbed(t, nil)
	var bits []attack.Bit
	for i := 0; i < 64; i++ {
		bits = append(bits, attack.Bit(i%2))
	}
	tb.addVM(t, attack.NewCovertSender(bits, true), guest.NewOS(), []byte("pristine-image"))
	recv := tb.hv.NewDomain("receiver", 256, 0, workload.Spinner(200*time.Microsecond))
	recv.WakeAll()
	tb.advance(100 * time.Millisecond)
	v := Interpret(properties.CovertChannelFreedom, tb.collect(t, properties.CovertChannelFreedom), tb.nonce, tb.refs)
	if v.Healthy {
		t.Fatalf("covert channel not detected: %v", v)
	}
}

func TestCovertChannelBenignService(t *testing.T) {
	tb := newTestbed(t, nil)
	svc, _ := workload.NewService("database")
	tb.addVM(t, svc, guest.NewOS(), []byte("pristine-image"))
	other := tb.hv.NewDomain("other", 256, 0, workload.Spinner(200*time.Microsecond))
	other.WakeAll()
	tb.advance(100 * time.Millisecond)
	v := Interpret(properties.CovertChannelFreedom, tb.collect(t, properties.CovertChannelFreedom), tb.nonce, tb.refs)
	if !v.Healthy {
		t.Fatalf("benign database service flagged as covert channel: %v", v)
	}
}

func TestCovertChannelBenignSpinner(t *testing.T) {
	tb := newTestbed(t, nil)
	tb.addVM(t, workload.Spinner(50*time.Millisecond), guest.NewOS(), []byte("pristine-image"))
	other := tb.hv.NewDomain("other", 256, 0, workload.Spinner(50*time.Millisecond))
	other.WakeAll()
	tb.advance(100 * time.Millisecond)
	v := Interpret(properties.CovertChannelFreedom, tb.collect(t, properties.CovertChannelFreedom), tb.nonce, tb.refs)
	if !v.Healthy {
		t.Fatalf("benign CPU-bound VM flagged as covert channel: %v", v)
	}
}

func TestCovertChannelIdleVM(t *testing.T) {
	tb := newTestbed(t, nil)
	tb.addVM(t, workload.Idle(), guest.NewOS(), []byte("pristine-image"))
	v := Interpret(properties.CovertChannelFreedom, tb.collect(t, properties.CovertChannelFreedom), tb.nonce, tb.refs)
	if !v.Healthy {
		t.Fatalf("idle VM flagged: %v", v)
	}
}

func TestAnalyzeHistogramSynthetic(t *testing.T) {
	// Synthetic bimodal: peaks at bins 3 and 7.
	counters := make([]uint64, 30)
	counters[2] = 40
	counters[3] = 60
	counters[6] = 50
	counters[7] = 45
	a := AnalyzeHistogram(counters)
	if !a.Bimodal {
		t.Fatalf("synthetic covert histogram not bimodal: %+v", a)
	}
	// Synthetic benign: single peak at bin 29.
	counters = make([]uint64, 30)
	counters[29] = 100
	counters[19] = 20
	if a := AnalyzeHistogram(counters); a.Bimodal {
		t.Fatalf("synthetic benign histogram flagged: %+v", a)
	}
	// Empty histogram.
	if a := AnalyzeHistogram(make([]uint64, 30)); a.Total != 0 || a.Bimodal {
		t.Fatalf("empty histogram mis-analyzed: %+v", a)
	}
}

// --- Case study IV: availability ---

func TestAvailabilityHealthyUnderFairShare(t *testing.T) {
	tb := newTestbed(t, nil)
	tb.addVM(t, workload.Spinner(5*time.Millisecond), guest.NewOS(), []byte("pristine-image"))
	other := tb.hv.NewDomain("co-tenant", 256, 0, workload.Spinner(5*time.Millisecond))
	other.WakeAll()
	tb.advance(100 * time.Millisecond)
	v := Interpret(properties.CPUAvailability, tb.collect(t, properties.CPUAvailability), tb.nonce, tb.refs)
	if !v.Healthy {
		t.Fatalf("fair 50%% share judged compromised: %v", v)
	}
}

func TestAvailabilityDetectsStarvation(t *testing.T) {
	tb := newTestbed(t, nil)
	tb.addVM(t, workload.Spinner(5*time.Millisecond), guest.NewOS(), []byte("pristine-image"))
	if _, err := attack.NewStarvationDomain(tb.hv, "attacker", 0); err != nil {
		t.Fatal(err)
	}
	tb.advance(500 * time.Millisecond)
	v := Interpret(properties.CPUAvailability, tb.collect(t, properties.CPUAvailability), tb.nonce, tb.refs)
	if v.Healthy {
		t.Fatalf("starved VM judged healthy: %v", v)
	}
}

func TestAvailabilityEdgeCases(t *testing.T) {
	if v := Availability(nil, References{}); v.Healthy {
		t.Fatal("healthy with no measurement")
	}
	ms := []properties.Measurement{{Kind: properties.KindCPUTime, CPUTime: 0, WallTime: 0}}
	if v := Availability(ms, References{}); v.Healthy {
		t.Fatal("healthy with empty window")
	}
	// Default floor applies when refs leave it zero.
	ms = []properties.Measurement{{Kind: properties.KindCPUTime, CPUTime: 500 * time.Millisecond, WallTime: time.Second}}
	if v := Availability(ms, References{}); !v.Healthy {
		t.Fatalf("50%% share below default floor? %v", v)
	}
}

func TestInterpretUnknownProperty(t *testing.T) {
	if v := Interpret("bogus", nil, cryptoutil.Nonce{}, References{}); v.Healthy {
		t.Fatal("unknown property judged healthy")
	}
}

// TestRegisterInterpreterValidation holds the interpreter's rules of Spec
// validation (the property rules are in internal/properties, the collector
// rules in internal/monitor), and a custom interpreter's verdict stamped
// like a built-in one's.
func TestRegisterInterpreterValidation(t *testing.T) {
	collect := func(vm *monitor.VM, k properties.MeasurementKind, n [16]byte) (properties.Measurement, error) {
		return properties.Measurement{Kind: k}, nil
	}
	interp := func(ms []properties.Measurement, n cryptoutil.Nonce, refs References) properties.Verdict {
		return properties.Verdict{Property: "custom-p", Healthy: true, Reason: "ok"}
	}
	good := Spec{Property: "custom-p", Request: properties.Request{Kinds: []properties.MeasurementKind{"custom-k"}}, Collect: collect, Interpret: interp}
	for _, tc := range []struct {
		name  string
		specs []Spec
		ok    bool
	}{
		{"none", nil, true},
		{"collector and interpreter", []Spec{good}, true},
		{"nil interpreter", []Spec{{Property: "custom-p", Request: good.Request, Collect: collect}}, false},
		{"built-in interpreter", []Spec{{Property: properties.CPUAvailability, Request: good.Request, Collect: collect, Interpret: interp}}, false},
	} {
		if err := Validate(tc.specs); (err == nil) != tc.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	v := good.Appraise(nil, cryptoutil.Nonce{}, References{Backend: driver.BackendSEVSNP})
	if !v.Healthy || v.Backend != string(driver.BackendSEVSNP) {
		t.Fatalf("custom verdict %+v, want healthy from the sev-snp backend", v)
	}
}

// --- Case study III extension: memory-bus covert channel ---

func TestBusCovertChannelDetected(t *testing.T) {
	tb := newTestbed(t, nil)
	var bits []attack.Bit
	for i := 0; i < 48; i++ {
		bits = append(bits, attack.Bit((i*7)%2))
	}
	tb.addVM(t, attack.NewBusCovertSender(bits, true), guest.NewOS(), []byte("pristine-image"))
	tb.advance(100 * time.Millisecond)
	v := Interpret(properties.CovertChannelFreedom, tb.collect(t, properties.CovertChannelFreedom), tb.nonce, tb.refs)
	if v.Healthy {
		t.Fatalf("bus covert channel not detected: %v", v)
	}
	if v.Details["bus-lock-rate"] == "" {
		t.Fatalf("bus rate missing from details: %v", v.Details)
	}
}

func TestBusCovertSenderEvadesCPUHistogramAlone(t *testing.T) {
	// The bus sender's scheduling pattern is benign — remove the bus trace
	// from the evidence and the CPU-interval detector alone must NOT flag
	// it. This is why the second monitor exists.
	tb := newTestbed(t, nil)
	var bits []attack.Bit
	for i := 0; i < 48; i++ {
		bits = append(bits, attack.Bit(i%2))
	}
	tb.addVM(t, attack.NewBusCovertSender(bits, true), guest.NewOS(), []byte("pristine-image"))
	tb.advance(100 * time.Millisecond)
	ms := tb.collect(t, properties.CovertChannelFreedom)
	var cpuOnly []properties.Measurement
	for _, m := range ms {
		if m.Kind != properties.KindBusLockTrace {
			cpuOnly = append(cpuOnly, m)
		}
	}
	if v := CovertChannel(cpuOnly); !v.Healthy {
		t.Fatalf("CPU-interval detector alone flagged the bus sender (its pattern should look benign): %v", v)
	}
}

func TestBenignServicePassesBusMonitor(t *testing.T) {
	tb := newTestbed(t, nil)
	svc, _ := workload.NewService("database")
	tb.addVM(t, svc, guest.NewOS(), []byte("pristine-image"))
	tb.advance(100 * time.Millisecond)
	v := Interpret(properties.CovertChannelFreedom, tb.collect(t, properties.CovertChannelFreedom), tb.nonce, tb.refs)
	if !v.Healthy {
		t.Fatalf("benign service flagged by the bus monitor: %v", v)
	}
}

func TestAnalyzeBusTrace(t *testing.T) {
	// A sender at ~1800 locks/s over a 1s window.
	hot := make([]uint64, 30)
	for i := range hot {
		hot[i] = 60
	}
	if a := AnalyzeBusTrace(hot, time.Second); !a.Flagged || a.RatePerSec < 1000 {
		t.Fatalf("hot trace not flagged: %+v", a)
	}
	// Benign trickle: ~60 locks/s.
	cold := make([]uint64, 30)
	for i := range cold {
		cold[i] = 2
	}
	if a := AnalyzeBusTrace(cold, time.Second); a.Flagged {
		t.Fatalf("benign trickle flagged: %+v", a)
	}
	// Empty trace.
	if a := AnalyzeBusTrace(make([]uint64, 30), time.Second); a.Flagged || a.Total != 0 {
		t.Fatalf("empty trace mis-analyzed: %+v", a)
	}
	// Zero window defaults sanely.
	if a := AnalyzeBusTrace(hot, 0); !a.Flagged {
		t.Fatalf("zero-window analysis broken: %+v", a)
	}
}

// --- IMA-style versioned appraisal catalogs ---

func TestApprovedVersionCatalogAcceptsOlderBuild(t *testing.T) {
	// A server runs an older-but-approved hypervisor build: the primary
	// catalog rejects it, but it is listed in an approved-versions catalog.
	oldPlatform := monitor.StandardPlatform()
	oldPlatform[1].Data = []byte("xen-4.1 pristine (previous approved build)")
	tb := newTestbed(t, oldPlatform)
	tb.addVM(t, workload.Idle(), guest.NewOS(), []byte("pristine-image"))
	ms := tb.collect(t, properties.StartupIntegrity)

	// Without the catalog: rejected.
	if v := Interpret(properties.StartupIntegrity, ms, tb.nonce, tb.refs); v.Healthy {
		t.Fatal("unapproved old build accepted")
	}
	// With the old build catalogued as approved: accepted.
	oldCatalog := map[string][32]byte{}
	for _, c := range oldPlatform {
		oldCatalog[c.Name] = sha256.Sum256(c.Data)
	}
	refs := tb.refs
	refs.ApprovedVersions = []map[string][32]byte{oldCatalog}
	if v := Interpret(properties.StartupIntegrity, ms, tb.nonce, refs); !v.Healthy {
		t.Fatalf("approved old build rejected: %v", v)
	}
	// A trojaned build is still rejected even with catalogs present.
	trojan := monitor.StandardPlatform()
	trojan[1].Data = []byte("xen TROJANED")
	tb2 := newTestbed(t, trojan)
	tb2.addVM(t, workload.Idle(), guest.NewOS(), []byte("pristine-image"))
	ms2 := tb2.collect(t, properties.StartupIntegrity)
	refs2 := tb2.refs
	refs2.ApprovedVersions = []map[string][32]byte{oldCatalog}
	if v := Interpret(properties.StartupIntegrity, ms2, tb2.nonce, refs2); v.Healthy {
		t.Fatal("trojaned build slipped through the version catalogs")
	}
}
