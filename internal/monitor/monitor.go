// Package monitor implements the Monitor Module of a CloudMonatt cloud
// server (paper Fig. 2): the Monitor Kernel that dispatches measurement
// requests, and four monitor tools —
//
//   - the Integrity Measurement Unit (IMU), which measures the platform
//     boot chain and VM images into the server's trust backend (the TPM,
//     on the paper's own architecture);
//   - the VM Introspection (VMI) tool, which reads the *true* task list of
//     a guest from outside the VM;
//   - the VMM Profile tool, which accounts a VM's virtual running time over
//     a measurement window without intercepting its execution;
//   - the Performance Monitor Unit (PMU), which bins the target VM's
//     CPU-usage intervals into the 30 Trust Evidence Registers used by the
//     covert-channel detector (§4.4.2).
package monitor

import (
	"fmt"
	"sync"
	"time"

	"cloudmonatt/internal/guest"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/sim"
	"cloudmonatt/internal/trust"
	"cloudmonatt/internal/trust/driver"
	"cloudmonatt/internal/xen"
)

// HistogramBins is the number of interval bins (and Trust Evidence
// Registers) used by the covert-channel detector: 1 ms granularity over the
// 30 ms default execution interval (paper §4.4.2).
const HistogramBins = 30

// BinWidth is the width of one interval bin.
const BinWidth = time.Millisecond

// CPUTimeRegister is the Trust Evidence Register holding CPU_measure.
const CPUTimeRegister = HistogramBins

// mergeEps is the maximum scheduler-artifact gap folded into one logical
// CPU-usage interval: IPI latency, dispatch overheads, and sub-half-ms
// preemptions by fine-grained probing co-tenants all merge, so a benign
// VM's long bursts are not shredded into pseudo-symbols. The covert
// sender's inter-symbol gap (1 ms) stays above this, so real symbols still
// delimit. (A sender could evade the PMU with sub-eps gaps, but then its
// receiver gets only sub-eps probe slots, crippling the channel.)
const mergeEps = 500 * time.Microsecond

// Component is one measured platform element.
type Component struct {
	Name string
	Data []byte
}

// StandardPlatform returns the pristine platform software stack every
// CloudMonatt-secure server boots. The appraiser knows these contents, so
// it can compute the expected measurements.
func StandardPlatform() []Component {
	return []Component{
		{Name: "firmware", Data: []byte("seabios-1.7 pristine")},
		{Name: "hypervisor", Data: []byte("xen-4.2 pristine")},
		{Name: "host-os", Data: []byte("dom0-linux-3.8 pristine")},
		{Name: "platform-config", Data: []byte("cloudmonatt-node.conf v1")},
	}
}

// VM is the monitor's handle on one hosted virtual machine.
type VM struct {
	Vid         string
	Domain      *xen.Domain
	Guest       *guest.OS
	ImageDigest [32]byte
}

// Module is the Monitor Module of one cloud server.
type Module struct {
	hv         *xen.Hypervisor
	regs       *trust.Registers
	drv        driver.Driver
	collectors map[properties.MeasurementKind]Collector // read-only after New

	mu         sync.Mutex
	vms        map[string]*VM
	watches    map[string]*intervalWatch
	busWatches map[string]*busWatch
	profiles   map[string]*profileWindow

	// The scheduler observers, bound once in New; removers while registered.
	onSegment                   xen.RunSegmentObserver
	onBus                       xen.BusLockObserver
	unobserveSegs, unobserveBus func()
}

// New creates the Monitor Module and boots the IMU by measuring the platform
// components through the trust-backend driver (into the TPM, or dropped by
// backends whose evidence does not cover the host). Passing tampered
// components models a compromised platform. regs is the Trust Evidence
// Register bank the scheduler-level monitors store into. collectors gathers
// the custom kinds the deployment's properties request (nil: none), and is
// not written to.
func New(hv *xen.Hypervisor, regs *trust.Registers, drv driver.Driver, platform []Component, collectors map[properties.MeasurementKind]Collector) (*Module, error) {
	m := &Module{
		hv:         hv,
		regs:       regs,
		drv:        drv,
		collectors: collectors,
		vms:        make(map[string]*VM),
		watches:    make(map[string]*intervalWatch),
		busWatches: make(map[string]*busWatch),
		profiles:   make(map[string]*profileWindow),
	}
	m.onSegment, m.onBus = xen.RunSegmentFunc(m.observe), xen.BusLockFunc(m.observeBus)
	for _, c := range platform {
		if err := drv.BootMeasure(c.Name, c.Data); err != nil {
			return nil, fmt.Errorf("monitor: measuring %s: %w", c.Name, err)
		}
	}
	return m, nil
}

// AddVM registers a hosted VM with the monitor. The image digest must be
// the measurement taken before launch (the IMU records it through the
// trust backend: an image-PCR extension, a vTPM provisioning, or a launch
// measurement).
func (m *Module) AddVM(vm *VM) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.vms[vm.Vid]; dup {
		return fmt.Errorf("monitor: VM %s already registered", vm.Vid)
	}
	if err := m.drv.AddVM(vm.Vid, vm.ImageDigest); err != nil {
		return err
	}
	m.vms[vm.Vid] = vm
	return nil
}

// RemoveVM forgets a VM (termination or migration away).
func (m *Module) RemoveVM(vid string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.drv.RemoveVM(vid)
	delete(m.vms, vid)
	m.settle(vid, properties.KindIntervalHistogram, properties.KindBusLockTrace, properties.KindCPUTime)
}

// settle drops the VM's windows of the kinds given, then keeps the scheduler
// observers registered exactly while a watch is armed, so the kernel of a
// server that watches nothing calls no monitor code. Callers hold mu and the
// lock the kernel runs under (Server.mu).
func (m *Module) settle(vid string, drop ...properties.MeasurementKind) {
	for _, k := range drop {
		switch k {
		case properties.KindIntervalHistogram:
			delete(m.watches, vid)
		case properties.KindBusLockTrace:
			delete(m.busWatches, vid)
		case properties.KindCPUTime:
			delete(m.profiles, vid)
		}
	}
	if armed := len(m.watches)+len(m.busWatches) > 0; armed && m.unobserveSegs == nil {
		m.unobserveSegs, m.unobserveBus = m.hv.Observe(m.onSegment), m.hv.ObserveBus(m.onBus)
	} else if !armed && m.unobserveSegs != nil {
		m.unobserveSegs()
		m.unobserveBus()
		m.unobserveSegs, m.unobserveBus = nil, nil
	}
}

// vm looks up a registered VM.
func (m *Module) vm(vid string) (*VM, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.vms[vid]
	if !ok {
		return nil, fmt.Errorf("monitor: unknown VM %s", vid)
	}
	return v, nil
}

// --- Performance Monitor Unit -------------------------------------------

// intervalWatch accumulates one VM's CPU-usage intervals online: contiguous
// run segments (separated by less than mergeEps) extend the current
// interval; a real preemption closes it and bumps the matching bin.
type intervalWatch struct {
	dom     *xen.Domain
	bins    [HistogramBins]uint64
	accRun  sim.Time
	lastEnd sim.Time
	open    bool
}

func (w *intervalWatch) observe(start, end sim.Time) {
	if w.open && start-w.lastEnd <= mergeEps {
		w.accRun += end - start
		w.lastEnd = end
		return
	}
	w.closeInterval()
	w.accRun = end - start
	w.lastEnd = end
	w.open = true
}

func (w *intervalWatch) closeInterval() {
	if !w.open || w.accRun <= 0 {
		return
	}
	idx := int((w.accRun - 1) / BinWidth)
	if idx >= HistogramBins {
		idx = HistogramBins - 1
	}
	if idx < 0 {
		idx = 0
	}
	w.bins[idx]++
	w.open = false
	w.accRun = 0
}

// observe routes hypervisor run segments to the active PMU watches.
func (m *Module) observe(v *xen.VCPU, start, end sim.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, w := range m.watches {
		if w.dom == v.Domain() {
			w.observe(start, end)
		}
	}
}

// StartIntervalWatch arms the PMU on the VM's domain, zeroing the histogram
// registers.
func (m *Module) StartIntervalWatch(vid string) error {
	vm, err := m.vm(vid)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.watches[vid] = &intervalWatch{dom: vm.Domain}
	m.settle(vid)
	return nil
}

// CollectIntervalHistogram stops the watch, loads the bin counts into Trust
// Evidence Registers 0..29, and returns the histogram measurement.
func (m *Module) CollectIntervalHistogram(vid string) (properties.Measurement, error) {
	m.mu.Lock()
	w, ok := m.watches[vid]
	m.settle(vid, properties.KindIntervalHistogram)
	m.mu.Unlock()
	if !ok {
		return properties.Measurement{}, fmt.Errorf("monitor: no interval watch armed for %s", vid)
	}
	w.closeInterval()
	for i, c := range w.bins {
		if err := m.regs.Set(i, c); err != nil {
			return properties.Measurement{}, err
		}
	}
	// Disarmed, the watch is ours alone: its bins are the counters.
	return properties.Measurement{Kind: properties.KindIntervalHistogram, Counters: w.bins[:]}, nil
}

// --- bus-lock watch ---------------------------------------------------------

// busWatch bins a VM's locked-operation counts into HistogramBins time
// slices of the observation window — a second bank of programmable Trust
// Evidence Registers, monitoring the memory-bus covert channel the paper's
// §4.4.3 anticipates ("other types of covert channels can also be
// monitored, with more Trust Evidence Registers and mechanisms").
type busWatch struct {
	dom     *xen.Domain
	start   sim.Time
	binLen  sim.Time
	bins    [HistogramBins]uint64
	overrun uint64 // locks observed past the window (collected late)
}

func (w *busWatch) observe(at sim.Time, count int) {
	idx := int((at - w.start) / w.binLen)
	if idx < 0 {
		return
	}
	if idx >= HistogramBins {
		w.overrun += uint64(count)
		return
	}
	w.bins[idx] += uint64(count)
}

// observeBus routes bus-lock events to the active watches.
func (m *Module) observeBus(v *xen.VCPU, at sim.Time, count int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, w := range m.busWatches {
		if w.dom == v.Domain() {
			w.observe(at, count)
		}
	}
}

// StartBusWatch arms the bus-lock monitor on the VM for the given window.
func (m *Module) StartBusWatch(vid string, window sim.Time) error {
	vm, err := m.vm(vid)
	if err != nil {
		return err
	}
	if window <= 0 {
		window = sim.Time(HistogramBins) * 10 * time.Millisecond
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.busWatches[vid] = &busWatch{
		dom:    vm.Domain,
		start:  m.hv.Kernel().Now(),
		binLen: window / HistogramBins,
	}
	m.settle(vid)
	return nil
}

// CollectBusTrace stops the bus watch and returns the time-binned counts.
func (m *Module) CollectBusTrace(vid string) (properties.Measurement, error) {
	m.mu.Lock()
	w, ok := m.busWatches[vid]
	m.settle(vid, properties.KindBusLockTrace)
	m.mu.Unlock()
	if !ok {
		return properties.Measurement{}, fmt.Errorf("monitor: no bus watch armed for %s", vid)
	}
	return properties.Measurement{Kind: properties.KindBusLockTrace, Counters: w.bins[:]}, nil
}

// --- VMM Profile Tool -----------------------------------------------------

// profileWindow snapshots a VM's accumulated runtime at window start.
type profileWindow struct {
	dom     *xen.Domain
	startAt sim.Time
	startRT sim.Time
}

// StartProfile begins a CPU-time measurement window for the VM. The profile
// observes vCPU transitions only (no interception of the VM's execution),
// which is why periodic attestation costs the guest nothing (paper §7.1.2).
func (m *Module) StartProfile(vid string) error {
	vm, err := m.vm(vid)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.profiles[vid] = &profileWindow{
		dom:     vm.Domain,
		startAt: m.hv.Kernel().Now(),
		startRT: vm.Domain.TotalRuntime(),
	}
	return nil
}

// CollectProfile ends the window, stores CPU_measure (µs) into its Trust
// Evidence Register, and returns the cpu-time measurement.
func (m *Module) CollectProfile(vid string) (properties.Measurement, error) {
	m.mu.Lock()
	p, ok := m.profiles[vid]
	delete(m.profiles, vid)
	m.mu.Unlock()
	if !ok {
		return properties.Measurement{}, fmt.Errorf("monitor: no profile window open for %s", vid)
	}
	cpu := p.dom.TotalRuntime() - p.startRT
	wall := m.hv.Kernel().Now() - p.startAt
	if err := m.regs.Set(CPUTimeRegister, uint64(cpu/time.Microsecond)); err != nil {
		return properties.Measurement{}, err
	}
	return properties.Measurement{Kind: properties.KindCPUTime, CPUTime: cpu, WallTime: wall}, nil
}

// --- VM Introspection tool -------------------------------------------------

// CollectTaskList probes the guest's memory from the hypervisor and returns
// the true task list, including processes a rootkit hides from in-guest
// queries (paper §4.3.2).
func (m *Module) CollectTaskList(vid string) (properties.Measurement, error) {
	vm, err := m.vm(vid)
	if err != nil {
		return properties.Measurement{}, err
	}
	if vm.Guest == nil {
		return properties.Measurement{}, fmt.Errorf("monitor: VM %s has no introspectable guest", vid)
	}
	var names []string
	for _, p := range vm.Guest.TrueTasks() {
		names = append(names, p.Name)
	}
	return properties.Measurement{Kind: properties.KindTaskList, Tasks: names}, nil
}

// --- Integrity Measurement Unit ---------------------------------------------

// PlatformEvidence produces the trust backend's platform/startup evidence
// for the VM (a TPM platform quote, a vTPM quote, or an attestation
// report) bound to the verifier's nonce. The evidence kind must match
// what the verifier requested — a mismatch means the appraiser believes
// the server runs a different backend than it does. logFrom is how much of
// the backend's measurement log the verifier has replayed already
// (driver.Driver.PlatformEvidence).
func (m *Module) PlatformEvidence(vid string, kind properties.MeasurementKind, nonce [16]byte, logFrom int) (properties.Measurement, error) {
	meas, err := m.drv.PlatformEvidence(vid, nonce, logFrom)
	if err != nil {
		return properties.Measurement{}, err
	}
	if meas.Kind != kind {
		return properties.Measurement{}, fmt.Errorf("monitor: %s backend produces %s evidence, not %s",
			m.drv.Backend(), meas.Kind, kind)
	}
	return meas, nil
}

// ImageDigest returns the measurement of the VM's image taken before launch.
func (m *Module) ImageDigest(vid string) (properties.Measurement, error) {
	vm, err := m.vm(vid)
	if err != nil {
		return properties.Measurement{}, err
	}
	return properties.Measurement{Kind: properties.KindImageDigest, Digest: vm.ImageDigest}, nil
}

// --- Monitor Kernel ----------------------------------------------------------

// Collector gathers one measurement of a custom kind from a hosted VM (the
// Monitor Module side of the paper's property-extension claim, §4). It runs
// inside the Monitor Kernel with the same access the built-in tools have.
type Collector func(vm *VM, kind properties.MeasurementKind, nonce [16]byte) (properties.Measurement, error)

// Collect is the Monitor Kernel: it serves a measurement request end to
// end. For windowed kinds it arms the watches, asks the caller to advance
// virtual time by the window (the cloud server owns the simulation clock),
// then gathers the results. logFrom goes to PlatformEvidence. A request that
// fails leaves none of its kinds' windows armed.
func (m *Module) Collect(vid string, req properties.Request, nonce [16]byte, logFrom int, advance func(sim.Time)) (_ []properties.Measurement, err error) {
	defer func() {
		if err != nil {
			m.mu.Lock()
			m.settle(vid, req.Kinds...)
			m.mu.Unlock()
		}
	}()
	window := req.Window
	if window <= 0 {
		window = properties.DefaultWindow
	}
	needsWindow := false
	for _, k := range req.Kinds {
		switch k {
		case properties.KindIntervalHistogram:
			if err := m.StartIntervalWatch(vid); err != nil {
				return nil, err
			}
			needsWindow = true
		case properties.KindBusLockTrace:
			if err := m.StartBusWatch(vid, window); err != nil {
				return nil, err
			}
			needsWindow = true
		case properties.KindCPUTime:
			if err := m.StartProfile(vid); err != nil {
				return nil, err
			}
			needsWindow = true
		}
	}
	if needsWindow {
		if advance == nil {
			return nil, fmt.Errorf("monitor: windowed measurement requires a clock driver")
		}
		advance(window)
	}
	out := make([]properties.Measurement, 0, len(req.Kinds))
	for _, k := range req.Kinds {
		var meas properties.Measurement
		var err error
		switch k {
		case properties.KindPlatformQuote, properties.KindVTPMQuote, properties.KindAttestationReport:
			meas, err = m.PlatformEvidence(vid, k, nonce, logFrom)
		case properties.KindImageDigest:
			meas, err = m.ImageDigest(vid)
		case properties.KindTaskList:
			meas, err = m.CollectTaskList(vid)
		case properties.KindIntervalHistogram:
			meas, err = m.CollectIntervalHistogram(vid)
		case properties.KindBusLockTrace:
			meas, err = m.CollectBusTrace(vid)
		case properties.KindCPUTime:
			meas, err = m.CollectProfile(vid)
		default:
			if c, ok := m.collectors[k]; ok {
				var vm *VM
				vm, err = m.vm(vid)
				if err == nil {
					meas, err = c(vm, k, nonce)
				}
			} else {
				err = fmt.Errorf("monitor: unsupported measurement kind %q", k)
			}
		}
		if err != nil {
			return nil, err
		}
		out = append(out, meas)
	}
	return out, nil
}
