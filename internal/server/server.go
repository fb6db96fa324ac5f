// Package server implements a CloudMonatt cloud server (paper Fig. 2): the
// attester. It hosts VMs under the simulated Xen hypervisor, wires the
// Trust Module and Monitor Module together, runs the Attestation Client
// that serves measurement requests from the Attestation Server, and the
// Management Client that serves VM lifecycle commands from the Cloud
// Controller (launch, terminate, suspend, resume, migrate).
//
// Each server simulates its hypervisor on a kernel of its own, attached to
// the testbed's clock (vclock.Clock.Attach) and seeded from the testbed seed
// and the server's name, so what a server's guests do depends on neither the
// size of the fleet nor the order it was built in. One lock, Server.mu,
// covers every touch of that hypervisor: the clock catching the kernel up,
// domain creation, destruction, pause and resume, Info, and the monitor's arm
// and collect steps. It is never held across Clock.Now or Clock.Advance.
package server

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"strings"
	"sync"
	"time"

	"cloudmonatt/internal/attack"
	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/guest"
	"cloudmonatt/internal/image"
	"cloudmonatt/internal/monitor"
	"cloudmonatt/internal/obs"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/secchan"
	"cloudmonatt/internal/sim"
	"cloudmonatt/internal/trust"
	"cloudmonatt/internal/trust/driver"
	"cloudmonatt/internal/vclock"
	"cloudmonatt/internal/wire"
	"cloudmonatt/internal/workload"
	"cloudmonatt/internal/xen"
)

// Certifier obtains privacy-CA certificates for session attestation keys.
// In the in-process testbed it is the pCA itself; in a distributed
// deployment it is an RPC stub.
type Certifier interface {
	// Certify is a privacy-CA round-trip (issuance, ledger group-commit
	// waits, possibly an RPC); the only lock a caller may hold across it is
	// one that exists to serialize the round-trip (Server.sessMu).
	//
	// lockorder: blocking
	Certify(req *trust.CertRequest) (*cryptoutil.Certificate, error)
}

// Capacity is the server's allocatable resources. Its methods are the one
// place the resource triple is added, subtracted or compared, on the host
// and in the controller's scheduler alike.
type Capacity struct {
	VCPUs    int
	MemoryMB int
	DiskGB   int
}

// Fits reports whether c has room for a flavor.
func (c Capacity) Fits(f image.Flavor) bool {
	return f.VCPUs <= c.VCPUs && f.MemoryMB <= c.MemoryMB && f.DiskGB <= c.DiskGB
}

// Add returns c grown by a flavor's resources.
func (c Capacity) Add(f image.Flavor) Capacity {
	return Capacity{VCPUs: c.VCPUs + f.VCPUs, MemoryMB: c.MemoryMB + f.MemoryMB, DiskGB: c.DiskGB + f.DiskGB}
}

// Sub returns c shrunk by a flavor's resources.
func (c Capacity) Sub(f image.Flavor) Capacity {
	return Capacity{VCPUs: c.VCPUs - f.VCPUs, MemoryMB: c.MemoryMB - f.MemoryMB, DiskGB: c.DiskGB - f.DiskGB}
}

// Minus returns what used leaves of c.
func (c Capacity) Minus(used Capacity) Capacity {
	return Capacity{VCPUs: c.VCPUs - used.VCPUs, MemoryMB: c.MemoryMB - used.MemoryMB, DiskGB: c.DiskGB - used.DiskGB}
}

// Config configures one cloud server.
type Config struct {
	Name  string
	Clock *vclock.Clock
	// Seed is the testbed's seed; with Name it seeds the server's kernel.
	Seed      int64
	PCPUs     int
	Capacity  Capacity
	Certifier Certifier
	Rand      io.Reader
	// Platform overrides the measured boot chain (nil = pristine standard
	// platform); pass tampered components to model a compromised host.
	Platform []monitor.Component
	// Backend selects the trust backend rooting this server's platform
	// evidence (empty = the classic TPM Trust Module).
	Backend driver.Backend
	// TCB is the platform security version a confidential-VM backend
	// reports; an old version models a stale-firmware rollback scenario.
	TCB driver.TCBVersion
	// Obs, when set, receives one span per served measurement (the entity
	// is the server's Name).
	Obs *obs.Store
	// Collectors gathers the custom measurement kinds of the deployment's
	// properties (interpret.Spec.Collect, by kind); it is only read.
	Collectors map[properties.MeasurementKind]monitor.Collector
}

// LaunchSpec describes a VM to place on this server.
type LaunchSpec struct {
	Vid         string
	ImageName   string
	ImageDigest [32]byte
	Flavor      image.Flavor
	// Workload names the vCPU program: a service ("database", …), a victim
	// job ("bzip2", …), "idle", "probe" (fine-grained spinner), "spinner",
	// an attack ("attack:covert-sender", "attack:cpu-starver"), or
	// "attack:rfa:<vid>", the Resource-Freeing attacker of the hosted
	// cached-server VM <vid>.
	Workload string
	// Pin selects the pCPU (for co-residency experiments); -1 = spread.
	Pin int
}

// VMInfo reports a hosted VM's runtime state.
type VMInfo struct {
	Vid      string
	Workload string
	Runtime  time.Duration
	Done     bool
	DoneAt   time.Duration
	State    string
}

type hostedVM struct {
	spec     LaunchSpec
	domain   *xen.Domain
	guest    *guest.OS
	programs []xen.Program
	state    string // running | suspended
}

// Server is one cloud server node.
type Server struct {
	cfg    Config
	hv     *xen.Hypervisor
	tm     *trust.Module
	drv    driver.Driver
	mon    *monitor.Module
	tracer *obs.Tracer

	// mu guards the hosted-VM table and everything that runs on the
	// server's kernel: the hypervisor, its domains, Dom0's work queue and the
	// monitor's reads of them.
	mu      sync.Mutex
	vms     map[string]*hostedVM
	used    Capacity
	nextPin int

	dom0     *xen.Domain
	dom0Prog *dom0Program

	// tickets issues secure-channel resumption tickets, so the attestation
	// server's periodic reconnects skip the asymmetric handshake.
	tickets *secchan.TicketKeeper

	// The current attestation session and how many measurements it has been
	// handed to. sessMu serializes rotation, the pCA round-trip included; a
	// session is immutable once stored here.
	sessMu   sync.Mutex
	sess     *trust.Session
	sessUses int
}

// dom0CostPerCollection is the host-VM CPU work each measurement collection
// costs (it runs in Dom0, never intercepting the guest).
const dom0CostPerCollection = 200 * time.Microsecond

// dom0Program models the host VM: it executes queued management work (like
// measurement collection) in small bursts and halts when there is none, the
// way a real Dom0 sleeps until an event channel fires. Whoever queues work
// sends its vCPU an IPI (Server.kickDom0).
type dom0Program struct {
	pending sim.Time // guarded by Server.mu, like everything on the kernel
}

// NextBurst implements xen.Program.
func (d *dom0Program) NextBurst(env xen.Env, self *xen.VCPU) xen.Burst {
	if d.pending <= 0 {
		return xen.Burst{Halt: true}
	}
	run := min(d.pending, time.Millisecond)
	d.pending -= run
	return xen.Burst{Run: run}
}

// kickDom0 queues host-VM work and raises Dom0's event channel. A kick that
// finds Dom0 running or runnable wakes nothing and loses nothing: Dom0 halts
// only on finding the queue empty. The caller holds s.mu.
func (s *Server) kickDom0(work sim.Time) {
	s.dom0Prog.pending += work
	s.hv.SendIPI(s.dom0.VCPUs()[0])
}

// kernelSeed derives a server's simulation seed from the testbed's seed and
// the server's name alone.
func kernelSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	h.Write(binary.LittleEndian.AppendUint64(nil, uint64(seed)))
	h.Write([]byte(name))
	return int64(h.Sum64())
}

// New boots a cloud server: provisions the Trust Module and the trust
// backend, measures the platform into it, creates Dom0 and attaches the
// server's kernel to the clock.
func New(cfg Config) (*Server, error) {
	if cfg.PCPUs <= 0 {
		cfg.PCPUs = 1
	}
	tm, err := trust.NewModule(cfg.Name, 0, cfg.Rand)
	if err != nil {
		return nil, err
	}
	k := sim.NewKernel(kernelSeed(cfg.Seed, cfg.Name))
	hv := xen.New(k, xen.DefaultConfig(), cfg.PCPUs)
	platform := cfg.Platform
	if platform == nil {
		platform = monitor.StandardPlatform()
	}
	drv, err := driver.Open(cfg.Backend, driver.Config{ServerName: cfg.Name, Rand: cfg.Rand, TCB: cfg.TCB})
	if err != nil {
		return nil, err
	}
	mon, err := monitor.New(hv, tm.Registers(), drv, platform, cfg.Collectors)
	if err != nil {
		return nil, err
	}
	tickets, err := secchan.NewTicketKeeper(0)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		hv:       hv,
		tm:       tm,
		drv:      drv,
		mon:      mon,
		tracer:   obs.NewTracer(cfg.Obs, cfg.Name, cfg.Clock.Now),
		vms:      make(map[string]*hostedVM),
		dom0Prog: &dom0Program{},
		tickets:  tickets,
	}
	s.dom0 = hv.NewDomain(cfg.Name+"/dom0", 512, 0, s.dom0Prog)
	cfg.Clock.Attach(&s.mu, k)
	return s, nil
}

// Name returns the server's identity name.
func (s *Server) Name() string { return s.cfg.Name }

// Identity returns the identity used for secure-channel authentication.
// The paper notes the SSL identity key is "minimally what is required" and
// already present — we share the Trust Module identity.
func (s *Server) Identity() *cryptoutil.Identity { return s.tm.Identity() }

// AIK returns the trust backend's attestation key — the TPM AIK, the vTPM
// hardware endorsement key, or the VCEK — registered with the Attestation
// Server's database at provisioning.
func (s *Server) AIK() []byte { return s.drv.AttestationKey() }

// Backend reports the trust backend rooting this server's evidence.
func (s *Server) Backend() driver.Backend { return s.drv.Backend() }

// TrustModule exposes the Trust Module (provisioning and tests).
func (s *Server) TrustModule() *trust.Module { return s.tm }

// Hypervisor exposes the hypervisor for tests; nothing that reads it may run
// beside a Clock.Advance.
func (s *Server) Hypervisor() *xen.Hypervisor { return s.hv }

// Free returns the remaining allocatable capacity.
func (s *Server) Free() Capacity {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg.Capacity.Minus(s.used)
}

// rfaWorkload prefixes the Resource-Freeing attacker's workload name; the
// rest names the co-resident cached-server victim.
const rfaWorkload = "attack:rfa:"

// buildPrograms constructs the vCPU programs for a workload name.
func (s *Server) buildPrograms(name string) ([]xen.Program, func(*xen.Domain) error, error) {
	noBind := func(*xen.Domain) error { return nil }
	switch {
	case name == "" || name == "idle":
		return []xen.Program{workload.Idle()}, noBind, nil
	case name == "spinner":
		return []xen.Program{workload.Spinner(10 * time.Millisecond)}, noBind, nil
	case name == "probe":
		return []xen.Program{workload.Spinner(200 * time.Microsecond)}, noBind, nil
	case name == "cached-server":
		return []xen.Program{workload.NewCachedServer()}, noBind, nil
	case name == "attack:cpu-starver":
		a, b := attack.NewStarverPair()
		return []xen.Program{a, b}, func(d *xen.Domain) error { return attack.Bind(a, b, d) }, nil
	case name == "attack:bus-covert-sender":
		var bits []attack.Bit
		for i := 0; i < 32; i++ {
			bits = append(bits, attack.Bit(i%2))
		}
		return []xen.Program{attack.NewBusCovertSender(bits, true)}, noBind, nil
	case strings.HasPrefix(name, "attack:covert-sender"):
		var bits []attack.Bit
		for i := 0; i < 32; i++ {
			bits = append(bits, attack.Bit((i/2)%2)) // 00110011… pattern
		}
		sender := attack.NewCovertSender(bits, true)
		if err := sender.Validate(s.hv.Config().TickPeriod); err != nil {
			return nil, nil, err
		}
		return []xen.Program{sender}, noBind, nil
	case strings.HasPrefix(name, rfaWorkload):
		// Experiment rigs only: a real attacker would reach the victim's
		// cache through its public request interface.
		target, err := s.CachedServerOf(strings.TrimPrefix(name, rfaWorkload))
		if err != nil {
			return nil, nil, err
		}
		return []xen.Program{attack.NewResourceFreeing(target)}, noBind, nil
	}
	if svc, err := workload.NewService(name); err == nil {
		return []xen.Program{svc}, noBind, nil
	}
	if job, err := workload.NewVictim(name); err == nil {
		return []xen.Program{job}, noBind, nil
	}
	return nil, nil, fmt.Errorf("server: unknown workload %q", name)
}

// Launch places and starts a VM: the one admission path onto this host,
// whatever the workload. The programs are built before the lock because an
// attacker workload looks its victim up among the hosted VMs.
func (s *Server) Launch(spec LaunchSpec) error {
	progs, bind, err := s.buildPrograms(spec.Workload)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.vms[spec.Vid]; dup {
		return fmt.Errorf("server %s: VM %s already hosted", s.cfg.Name, spec.Vid)
	}
	if !s.cfg.Capacity.Minus(s.used).Fits(spec.Flavor) {
		return fmt.Errorf("server %s: insufficient capacity for %s", s.cfg.Name, spec.Vid)
	}
	pin := spec.Pin
	if pin < 0 || pin >= len(s.hv.PCPUs()) {
		pin = s.nextPin % len(s.hv.PCPUs())
		s.nextPin++
	}
	g := guest.NewOS()
	dom := s.hv.NewDomain(spec.Vid, 256, pin, progs...)
	if err := bind(dom); err != nil {
		s.hv.DestroyDomain(dom)
		return err
	}
	vm := &hostedVM{spec: spec, domain: dom, guest: g, programs: progs, state: "running"}
	if err := s.mon.AddVM(&monitor.VM{Vid: spec.Vid, Domain: dom, Guest: g, ImageDigest: spec.ImageDigest}); err != nil {
		s.hv.DestroyDomain(dom)
		return err
	}
	dom.WakeAll()
	s.vms[spec.Vid] = vm
	s.used = s.used.Add(spec.Flavor)
	return nil
}

// vm looks up a hosted VM. Everything but its state is fixed at launch.
func (s *Server) vm(vid string) (*hostedVM, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.vmLocked(vid)
}

// vmLocked is vm for callers that hold s.mu.
func (s *Server) vmLocked(vid string) (*hostedVM, error) {
	vm, ok := s.vms[vid]
	if !ok {
		return nil, fmt.Errorf("server %s: no VM %s", s.cfg.Name, vid)
	}
	return vm, nil
}

// Guest exposes a hosted VM's guest OS so experiments can infect it.
func (s *Server) Guest(vid string) (*guest.OS, error) {
	vm, err := s.vm(vid)
	if err != nil {
		return nil, err
	}
	return vm.guest, nil
}

// Domain exposes a hosted VM's hypervisor domain.
func (s *Server) Domain(vid string) (*xen.Domain, error) {
	vm, err := s.vm(vid)
	if err != nil {
		return nil, err
	}
	return vm.domain, nil
}

// Info reports the VM's runtime state.
func (s *Server) Info(vid string) (VMInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	vm, err := s.vmLocked(vid)
	if err != nil {
		return VMInfo{}, err
	}
	info := VMInfo{
		Vid:      vid,
		Workload: vm.spec.Workload,
		Runtime:  vm.domain.TotalRuntime(),
		State:    vm.state,
	}
	if at, ok := vm.domain.DoneAt(); ok {
		info.Done = true
		info.DoneAt = at
	}
	return info, nil
}

// Terminate destroys a VM and releases its resources.
func (s *Server) Terminate(vid string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	vm, err := s.vmLocked(vid)
	if err != nil {
		return err
	}
	delete(s.vms, vid)
	s.used = s.used.Sub(vm.spec.Flavor)
	s.hv.DestroyDomain(vm.domain)
	s.mon.RemoveVM(vid)
	return nil
}

// Suspend pauses a VM, retaining its state.
func (s *Server) Suspend(vid string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	vm, err := s.vmLocked(vid)
	if err != nil {
		return err
	}
	if vm.state == "suspended" {
		return nil
	}
	s.hv.PauseDomain(vm.domain)
	vm.state = "suspended"
	return nil
}

// Resume continues a suspended VM.
func (s *Server) Resume(vid string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	vm, err := s.vmLocked(vid)
	if err != nil {
		return err
	}
	if vm.state != "suspended" {
		return fmt.Errorf("server %s: VM %s is not suspended", s.cfg.Name, vid)
	}
	s.hv.ResumeDomain(vm.domain)
	vm.state = "running"
	return nil
}

// CachedServerOf returns the hosted VM's cached-server workload, if that is
// what it runs (the Resource-Freeing attacker needs a handle on its
// victim's cache).
func (s *Server) CachedServerOf(vid string) (*workload.CachedServer, error) {
	vm, err := s.vm(vid)
	if err != nil {
		return nil, err
	}
	for _, p := range vm.programs {
		if cs, ok := p.(*workload.CachedServer); ok {
			return cs, nil
		}
	}
	return nil, fmt.Errorf("server %s: VM %s does not run a cached server", s.cfg.Name, vid)
}

// MigrateOut removes the VM and returns the spec a destination server can
// re-launch it from. (Like a cold migration: the workload restarts on the
// destination; live-migration state transfer is out of scope.)
func (s *Server) MigrateOut(vid string) (LaunchSpec, error) {
	vm, err := s.vm(vid)
	if err != nil {
		return LaunchSpec{}, err
	}
	spec := vm.spec
	if err := s.Terminate(vid); err != nil {
		return LaunchSpec{}, err
	}
	return spec, nil
}

// Measure serves one attestation measurement request end to end (Fig. 2
// steps 1–8): take the certified session key (a new one every sessionUses
// measurements), collect the measurements through the Monitor Kernel
// (advancing virtual time for windowed monitors), store them in the Trust
// Evidence Registers, and sign the evidence. The Dom0 cost of collection is
// charged to the host VM — the guest is never intercepted. The monitor arms
// and collects under s.mu; the window between them passes with it released,
// because the clock takes it to run this server's kernel.
func (s *Server) Measure(req wire.MeasureRequest) (*wire.Evidence, error) {
	if _, err := s.vm(req.Vid); err != nil {
		return nil, err
	}
	sess, err := s.certifiedSession()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.kickDom0(dom0CostPerCollection)
	ms, err := s.mon.Collect(req.Vid, req.Req, req.N3, int(req.LogFrom), func(w sim.Time) {
		s.mu.Unlock()
		s.cfg.Clock.Advance(w)
		s.mu.Lock()
	})
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return wire.BuildEvidence(sess, req.Vid, req.Req, ms, req.N3, string(s.drv.Backend())), nil
}

// sessionUses is how many measurements one certified attestation key signs
// before the Trust Module mints the next: the linkability window of
// DESIGN.md §15, bounded in uses, not in time.
const sessionUses = 8

// certifiedSession hands out the server's current attestation session,
// rotating it first when it has signed sessionUses measurements: mint a key
// pair, have the pCA certify it once, and only then publish it. A failed
// certification keeps nothing, so the next call starts over.
func (s *Server) certifiedSession() (*trust.Session, error) {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	if s.sess == nil || s.sessUses == sessionUses {
		sess, csr, err := s.tm.NewSession()
		if err != nil {
			return nil, err
		}
		cert, err := s.cfg.Certifier.Certify(csr)
		if err != nil {
			return nil, fmt.Errorf("server %s: session key certification failed: %w", s.cfg.Name, err)
		}
		sess.Cert = cert
		s.sess, s.sessUses = sess, 0
	}
	s.sessUses++
	return s.sess, nil
}
