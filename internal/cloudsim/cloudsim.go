// Package cloudsim assembles the complete in-process CloudMonatt testbed:
// one Cloud Controller, one Attestation Server with its privacy CA, and N
// cloud servers, all speaking the real attestation protocol over
// authenticated encrypted channels on an in-memory network, with every
// latency model and every server's own simulation kernel kept at the time of
// one shared virtual clock. It is the equivalent of the paper's
// three-machine OpenStack deployment (§7), squeezed into a deterministic
// process.
package cloudsim

import (
	"crypto/ed25519"
	"crypto/rand"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"cloudmonatt/internal/attestsrv"
	"cloudmonatt/internal/controller"
	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/customer"
	"cloudmonatt/internal/guest"
	"cloudmonatt/internal/image"
	"cloudmonatt/internal/interpret"
	"cloudmonatt/internal/latency"
	"cloudmonatt/internal/ledger"
	"cloudmonatt/internal/monitor"
	"cloudmonatt/internal/obs"
	"cloudmonatt/internal/pca"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/rpc"
	"cloudmonatt/internal/secchan"
	"cloudmonatt/internal/server"
	"cloudmonatt/internal/shard"
	"cloudmonatt/internal/sim"
	"cloudmonatt/internal/trust"
	"cloudmonatt/internal/trust/driver"
	"cloudmonatt/internal/trust/driver/sevsnp"
	"cloudmonatt/internal/vclock"
)

// Options configures the testbed.
type Options struct {
	Seed    int64
	Servers int
	// Shards is how many Attestation Server shards join the
	// consistent-hash ring at start (paper §3.2.3's scalability claim;
	// default 1, the paper's single Attestation Server). Every cloud server
	// registers with every shard, and a VM's appraisal state lives on the
	// shard owning its id. JoinShard/LeaveShard grow and shrink the plane at
	// runtime, moving only ~1/N of the fleet per step.
	Shards int
	// TamperPlatform lists server names booted with a trojaned hypervisor.
	TamperPlatform map[string]bool
	// Backends assigns trust backends to the cloud servers: server i runs
	// Backends[i%len(Backends)]. Empty runs the whole fleet on the paper's
	// own Trust-Module/TPM backend. A mixed list gives a mixed fleet where
	// a property can be attestable on one server and unattestable (V_fail)
	// on its neighbor.
	Backends []driver.Backend
	// StaleFirmware lists sev-snp server names provisioned with a
	// rolled-back platform security version (TCB), so their startup
	// appraisals fail on platform version even though the launch
	// measurement matches.
	StaleFirmware map[string]bool
	// MinTCB is the fleet-minimum platform security version the appraisers
	// enforce on sev-snp evidence. Zero applies the current TCB.
	MinTCB driver.TCBVersion
	// Policy overrides the controller's response policy.
	Policy map[properties.Property]controller.ResponseKind
	// Capacity overrides the per-server allocatable resources.
	Capacity server.Capacity
	// Network selects the transport. nil assembles the cloud on an
	// in-memory network; rpc.TCPNetwork{} runs the same entities over real
	// loopback TCP (used by cmd/monatt-cloud and examples/distributed).
	Network rpc.Network
	// LedgerDir persists the evidence ledger under this directory so an
	// auditor can replay the chain after the run (cmd/monatt-ledger).
	// Empty keeps the ledger in process memory.
	LedgerDir string
	// RPC is the fault-tolerance policy of every client in the testbed:
	// customer → controller, controller → attestation servers/cloud
	// servers, attestation servers → cloud servers.
	RPC rpc.Policy
	// ReattestEvery, when positive, makes the controller's reconcile loop
	// periodically re-attest every active VM's provisioned properties.
	ReattestEvery time.Duration
	// FailPoint, when set, is consulted at the controller's named crash
	// points (crash injection for the recovery tests). RestartController
	// builds the replacement controller without it, like a fresh process.
	FailPoint func(point string) bool
	// Properties are the deployment's custom security properties (paper §4:
	// "an arbitrary number of security properties and monitoring
	// mechanisms"). New validates them once; every cloud server collects and
	// offers each one, and every Attestation Server shard appraises it.
	Properties []interpret.Spec
}

// Testbed is the assembled cloud.
type Testbed struct {
	Clock  *vclock.Clock
	Net    rpc.Network
	Lat    *latency.Model
	Images *image.Library
	PCA    *pca.PCA
	// Attest is the first Attestation Server shard (the only one unless
	// Options.Shards > 1 or JoinShard grew the plane); AttestServers lists
	// all of them.
	Attest        *attestsrv.Server
	AttestServers []*attestsrv.Server
	Ctrl          *controller.Controller
	Servers       map[string]*server.Server
	// Ledger is the shared evidence ledger: every appraisal, remediation,
	// launch decision and pCA issuance chains into it.
	Ledger *ledger.Ledger
	// Obs is the shared span store: every entity records its attestation
	// spans here, keyed by the trace IDs customers mint from their nonces.
	Obs *obs.Store
	// Ring is the data-plane consistent-hash ring: the view the Attestation
	// Server shards enforce ownership against.
	Ring *shard.Ring

	// ControllerAddr is where the nova api listens (useful with TCP).
	ControllerAddr string

	mu         sync.Mutex
	opMu       sync.Mutex // serializes clock-driving logical operations
	directory  map[string]ed25519.PublicKey
	tamperNext bool
	nextCoVM   int
	opts       Options   // retained for customer channels and controller/shard rebuilds
	rand       io.Reader // every key, nonce and handshake drawn here; set once, in New

	// Assembly state retained so RestartController can rebuild the
	// controller exactly as New did (same identity, same fleet), minus the
	// failpoints — a fresh process recovering from the ledger.
	ctrlID      *cryptoutil.Identity
	attIDs      []*cryptoutil.Identity
	serverAddrs map[string]string
	attestAddrs []string

	// The controller routes against its own ring instance
	// (ctrlRing), normally mirrored join-for-join with the data-plane Ring:
	// both are built from the same seed, so identical memberships map
	// identically. SplitRing stops the mirroring, leaving the controller
	// with a stale view — the stale-routing experiments' lever.
	ctrlRing    *shard.Ring
	ringSplit   bool
	shardByName map[string]*attestsrv.Server
	caID        *cryptoutil.Identity
	certSwitch  *certifierSwitch
}

// certifierSwitch is the indirection between the cloud servers and the
// privacy CA, so RestartPCA can swap in a restarted pCA process (same
// identity, same ledger) behind the fleet's existing Certifier reference.
type certifierSwitch struct {
	mu sync.Mutex
	ca *pca.PCA
}

func (cs *certifierSwitch) Certify(req *trust.CertRequest) (*cryptoutil.Certificate, error) {
	cs.mu.Lock()
	ca := cs.ca
	cs.mu.Unlock()
	return ca.Certify(req)
}

// serverName formats the i-th cloud server's name.
func serverName(i int) string { return fmt.Sprintf("cloud-server-%d", i+1) }

// New builds and starts the testbed.
func New(opts Options) (*Testbed, error) {
	if opts.Servers <= 0 {
		opts.Servers = 3
	}
	if opts.Capacity == (server.Capacity{}) {
		opts.Capacity = server.Capacity{VCPUs: 16, MemoryMB: 32768, DiskGB: 500}
	}
	if opts.Shards <= 0 {
		opts.Shards = 1
	}
	if err := interpret.Validate(opts.Properties); err != nil {
		return nil, err
	}
	collectors := make(map[properties.MeasurementKind]monitor.Collector)
	for _, spec := range opts.Properties {
		for _, k := range spec.Request.Kinds {
			collectors[k] = spec.Collect
		}
	}
	network := opts.Network
	if network == nil {
		network = rpc.NewMemNetwork()
	}
	tb := &Testbed{
		Clock:     vclock.New(sim.NewKernel(opts.Seed)),
		Net:       network,
		Lat:       latency.New(opts.Seed + 1),
		Images:    image.NewLibrary(opts.Seed + 2),
		Servers:   make(map[string]*server.Server),
		Obs:       obs.NewStore(0),
		directory: make(map[string]ed25519.PublicKey),
		opts:      opts,
		rand:      rand.Reader,
	}
	listen := tb.listen

	// Ledger latency summaries run on the testbed's virtual clock so a
	// seeded run replays to identical metrics.
	led, err := ledger.Open(ledger.Options{Dir: opts.LedgerDir, Now: func() time.Time {
		return time.Unix(0, int64(tb.Clock.Now()))
	}})
	if err != nil {
		return nil, err
	}
	tb.Ledger = led

	// The pCA identity outlives pCA restarts (RestartPCA builds a fresh
	// process around the same key pair and ledger), and the servers reach
	// it through the certifierSwitch so the swap is invisible to them.
	caID, err := cryptoutil.NewIdentity("privacy-ca", tb.rand)
	if err != nil {
		return nil, err
	}
	tb.caID = caID
	caSrv := pca.NewWithIdentity(caID)
	tb.PCA = caSrv
	tb.certSwitch = &certifierSwitch{ca: caSrv}
	if err := caSrv.SetLedger(led, tb.Clock.Now); err != nil {
		return nil, err
	}

	ctrlID, err := cryptoutil.NewIdentity("cloud-controller", tb.rand)
	if err != nil {
		return nil, err
	}
	tb.register("cloud-controller", ctrlID.Public())

	// Cloud servers.
	serverAddrs := make(map[string]string, opts.Servers)
	for i := 0; i < opts.Servers; i++ {
		name := serverName(i)
		cfg := server.Config{
			Name:       name,
			Clock:      tb.Clock,
			Seed:       opts.Seed,
			PCPUs:      2,
			Capacity:   opts.Capacity,
			Certifier:  tb.certSwitch,
			Rand:       tb.rand,
			Obs:        tb.Obs,
			Collectors: collectors,
		}
		if n := len(opts.Backends); n > 0 {
			cfg.Backend = opts.Backends[i%n]
		}
		if opts.TamperPlatform[name] {
			cfg.Platform = trojanedPlatform()
		}
		if opts.StaleFirmware[name] {
			cfg.TCB = sevsnp.RolledBackTCB
		}
		srv, err := server.New(cfg)
		if err != nil {
			return nil, err
		}
		tb.Servers[name] = srv
		tb.register(name, srv.Identity().Public())
		caSrv.RegisterServer(name, srv.Identity().Public())
		l, addr, err := listen("server:" + name)
		if err != nil {
			return nil, err
		}
		serverAddrs[name] = addr
		srv.Serve(l, tb.Verify)
	}

	// Attestation Servers: every shard joins the consistent-hash ring and
	// every cloud server registers with every shard, since the shard owning
	// a VM is decided by the VM id, not the host.
	tb.Ring = shard.NewRing(opts.Seed+3, 0)
	tb.ctrlRing = shard.NewRing(opts.Seed+3, 0)
	tb.shardByName = make(map[string]*attestsrv.Server, opts.Shards)
	tb.serverAddrs = serverAddrs
	for i := 0; i < opts.Shards; i++ {
		id, _, err := tb.startShard()
		if err != nil {
			return nil, err
		}
		tb.Ring.Join(id.Name)
		tb.ctrlRing.Join(id.Name)
	}
	tb.Attest = tb.AttestServers[0]

	// Cloud Controller. The construction recipe is retained on the testbed
	// (newController) so a crash/restart test can build a replacement
	// process against the same ledger and fleet.
	tb.ctrlID = ctrlID
	tb.Ctrl = tb.newController(opts.FailPoint)
	cl, ctrlAddr, err := listen("cloud-controller")
	if err != nil {
		return nil, err
	}
	tb.ControllerAddr = ctrlAddr
	// The nova api endpoint outlives controller restarts: the listener
	// dispatches to whichever controller currently backs the testbed, so
	// customers keep their address (and the controller its identity)
	// across a crash. Each request is one logical operation: it holds opMu,
	// so exactly one operation drives virtual time while the channel and
	// crypto layers stay concurrent.
	go rpc.Serve(cl, secchan.Config{Identity: ctrlID, Verify: tb.Verify, Rand: tb.rand},
		func(peer rpc.Peer, method string, body []byte) ([]byte, error) {
			tb.opMu.Lock()
			defer tb.opMu.Unlock()
			return tb.ctrl().Handler()(peer, method, body)
		})
	return tb, nil
}

// listen binds an endpoint: symbolic names on the in-memory network,
// OS-assigned loopback ports on TCP. Wrappers like rpc.FaultNetwork are
// unwrapped so addressing follows the transport underneath.
func (tb *Testbed) listen(role string) (net.Listener, string, error) {
	base := tb.Net
	for {
		w, ok := base.(interface{ Inner() rpc.Network })
		if !ok {
			break
		}
		base = w.Inner()
	}
	bind := role
	if _, isMem := base.(*rpc.MemNetwork); !isMem {
		bind = "127.0.0.1:0"
	}
	l, err := tb.Net.Listen(bind)
	if err != nil {
		return nil, "", err
	}
	return l, l.Addr().String(), nil
}

// newController assembles a cloud controller against the testbed's fleet:
// same identity, network, ledger, and server registry every time. fp is
// the crash-injection hook; a restarted controller gets none, like a
// freshly exec'd process.
func (tb *Testbed) newController(fp func(string) bool) *controller.Controller {
	c := controller.New(controller.Config{
		Identity:      tb.ctrlID,
		Network:       tb.Net,
		Clock:         tb.Clock,
		Latency:       tb.Lat,
		Images:        tb.Images,
		Verify:        tb.Verify,
		Rand:          tb.rand,
		Policy:        tb.opts.Policy,
		ImageTamper:   tb.imageTamper,
		Ledger:        tb.Ledger,
		RPC:           tb.opts.RPC,
		Obs:           tb.Obs,
		ReattestEvery: tb.opts.ReattestEvery,
		FailPoint:     fp,
		Ring:          tb.ctrlRing,
	})
	for i, id := range tb.attIDs {
		c.RegisterAttestShard(id.Name, tb.attestAddrs[i], id.Public())
	}
	for i := 0; i < tb.opts.Servers; i++ {
		name := serverName(i)
		b := tb.Servers[name].Backend()
		c.RegisterServer(controller.ServerEntry{
			Name:     name,
			Addr:     tb.serverAddrs[name],
			Capacity: tb.opts.Capacity,
			Props:    tb.offered(b),
			Backend:  b,
		})
	}
	return c
}

// offered lists the properties a server on backend b offers: the built-ins
// the backend can evidence, then the deployment's custom ones, which every
// backend attests.
func (tb *Testbed) offered(b driver.Backend) []properties.Property {
	props := driver.AttestableProps(b)
	for _, spec := range tb.opts.Properties {
		props = append(props, spec.Property)
	}
	return props
}

// RestartController simulates a controller crash and recovery: the old
// controller's in-memory state is abandoned, a fresh controller (same
// identity, no failpoints) is swapped behind the nova api endpoint, and
// its ledger replay reconverges the fleet. Returns the replay error, if
// any; the testbed always points at the new controller afterwards.
func (tb *Testbed) RestartController() error {
	tb.opMu.Lock()
	defer tb.opMu.Unlock()
	ctrl := tb.newController(nil)
	tb.mu.Lock()
	tb.Ctrl = ctrl
	tb.mu.Unlock()
	return ctrl.Recover()
}

// startShard brings up the next Attestation Server shard against the
// testbed's fleet — a fresh identity, a listening endpoint, every cloud
// server registered with it — and records it on the testbed. Joining the
// rings and telling the controller is the caller's business.
func (tb *Testbed) startShard() (*cryptoutil.Identity, string, error) {
	shardName := "attestation-server"
	if n := len(tb.attIDs); n > 0 {
		shardName = fmt.Sprintf("attestation-server-%d", n)
	}
	id, err := cryptoutil.NewIdentity(shardName, tb.rand)
	if err != nil {
		return nil, "", err
	}
	tb.register(id.Name, id.Public())
	as := attestsrv.New(attestsrv.Config{
		Identity:   id,
		PCAName:    tb.PCA.Name(),
		PCAKey:     tb.PCA.PublicKey(),
		Network:    tb.Net,
		Clock:      tb.Clock,
		Latency:    tb.Lat,
		Verify:     tb.Verify,
		Rand:       tb.rand,
		Ledger:     tb.Ledger,
		RPC:        tb.opts.RPC,
		Obs:        tb.Obs,
		MinTCB:     tb.opts.MinTCB,
		Properties: tb.opts.Properties,
		Ring:       tb.Ring,
	})
	l, addr, err := tb.listen(id.Name)
	if err != nil {
		return nil, "", err
	}
	as.Serve(l, tb.Verify)
	for i := 0; i < tb.opts.Servers; i++ {
		name := serverName(i)
		srv := tb.Servers[name]
		b := srv.Backend()
		as.RegisterServer(attestsrv.ServerRecord{
			Name:       name,
			Addr:       tb.serverAddrs[name],
			AIK:        srv.AIK(),
			Properties: tb.offered(b),
			Backend:    b,
		})
	}
	tb.mu.Lock()
	tb.AttestServers = append(tb.AttestServers, as)
	tb.shardByName[id.Name] = as
	tb.attIDs = append(tb.attIDs, id)
	tb.attestAddrs = append(tb.attestAddrs, addr)
	tb.mu.Unlock()
	return id, addr, nil
}

// JoinShard grows the attestation plane by one shard: a fresh Attestation
// Server joins the ring, the controller learns its endpoint and
// report-signing key, and the ~1/N of the fleet the ring now assigns to it
// is handed off — periodic tasks keep their deadlines and buffered results,
// nothing is lost or double-armed. Returns the new shard's name and how
// many periodic tasks moved.
func (tb *Testbed) JoinShard() (string, int, error) {
	tb.opMu.Lock()
	defer tb.opMu.Unlock()
	id, addr, err := tb.startShard()
	if err != nil {
		return "", 0, err
	}
	tb.mu.Lock()
	ctrl := tb.Ctrl
	tb.mu.Unlock()
	ctrl.RegisterAttestShard(id.Name, addr, id.Public())
	tb.Ring.Join(id.Name)
	if !tb.ringSplit {
		tb.ctrlRing.Join(id.Name)
	}
	return id.Name, tb.rebalance(), nil
}

// LeaveShard drains a shard out of the ring: its entire ownership (~1/N of
// the fleet) is exported to the shards the ring now names. The process
// keeps serving — a straggler request that still reaches it is refused
// with a wrong-shard redirect, never answered from dead state. Returns how
// many periodic tasks moved.
func (tb *Testbed) LeaveShard(name string) (int, error) {
	tb.opMu.Lock()
	defer tb.opMu.Unlock()
	if _, ok := tb.shardByName[name]; !ok {
		return 0, fmt.Errorf("cloudsim: no shard %q", name)
	}
	if tb.Ring.Size() <= 1 {
		return 0, fmt.Errorf("cloudsim: cannot drain the last shard")
	}
	tb.Ring.Leave(name)
	if !tb.ringSplit {
		tb.ctrlRing.Leave(name)
	}
	return tb.rebalance(), nil
}

// rebalance converges shard ownership after a ring change: every shard
// exports the VM records and periodic tasks it no longer owns, and each
// bundle lands on the shard the ring now names. Import is idempotent by
// (vid, property), so a re-run moves nothing twice. Returns the number of
// periodic tasks re-armed on new owners.
func (tb *Testbed) rebalance() int {
	names := make([]string, 0, len(tb.shardByName))
	for n := range tb.shardByName {
		names = append(names, n)
	}
	sort.Strings(names)
	inbound := make(map[string]*attestsrv.ShardState)
	to := func(owner string) *attestsrv.ShardState {
		st := inbound[owner]
		if st == nil {
			st = &attestsrv.ShardState{}
			inbound[owner] = st
		}
		return st
	}
	for _, n := range names {
		st := tb.shardByName[n].ExportNotOwned()
		for _, rec := range st.VMs {
			if owner, _, ok := tb.Ring.Lookup(rec.Vid); ok {
				to(owner).VMs = append(to(owner).VMs, rec)
			}
		}
		for _, t := range st.Tasks {
			if owner, _, ok := tb.Ring.Lookup(t.Vid); ok {
				to(owner).Tasks = append(to(owner).Tasks, t)
			}
		}
	}
	moved := 0
	for _, n := range names {
		if in := inbound[n]; in != nil {
			moved += tb.shardByName[n].ImportShardState(*in)
		}
	}
	return moved
}

// SplitRing freezes the controller's ring view: subsequent JoinShard and
// LeaveShard calls move only the data-plane ring, so the controller routes
// on stale membership and must recover through the shards' wrong-shard
// redirects — the deterministic way to exercise that path.
func (tb *Testbed) SplitRing() {
	tb.opMu.Lock()
	tb.ringSplit = true
	tb.opMu.Unlock()
}

// HealRing reconverges the controller's ring view with the data plane and
// resumes mirroring.
func (tb *Testbed) HealRing() {
	tb.opMu.Lock()
	defer tb.opMu.Unlock()
	tb.ringSplit = false
	have := make(map[string]bool)
	for _, n := range tb.ctrlRing.Nodes() {
		have[n] = true
	}
	want := make(map[string]bool)
	for _, n := range tb.Ring.Nodes() {
		want[n] = true
		if !have[n] {
			tb.ctrlRing.Join(n)
		}
	}
	for n := range have {
		if !want[n] {
			tb.ctrlRing.Leave(n)
		}
	}
}

// RestartPCA simulates a privacy-CA crash and recovery: a fresh pCA
// process around the same identity key and evidence ledger is swapped in
// behind the fleet's Certifier reference. Ledger replay restores the
// serial-number high-water mark, so certificates issued after the restart
// continue the strictly increasing sequence instead of reusing serials.
func (tb *Testbed) RestartPCA() error {
	tb.opMu.Lock()
	defer tb.opMu.Unlock()
	ca := pca.NewWithIdentity(tb.caID)
	if err := ca.SetLedger(tb.Ledger, tb.Clock.Now); err != nil {
		return err
	}
	for name, srv := range tb.Servers {
		ca.RegisterServer(name, srv.Identity().Public())
	}
	tb.certSwitch.mu.Lock()
	tb.certSwitch.ca = ca
	tb.certSwitch.mu.Unlock()
	tb.mu.Lock()
	tb.PCA = ca
	tb.mu.Unlock()
	return nil
}

// trojanedPlatform returns a platform stack with a modified hypervisor, as
// measured at (compromised) server boot.
func trojanedPlatform() []monitor.Component {
	platform := monitor.StandardPlatform()
	for i := range platform {
		if platform[i].Name == "hypervisor" {
			platform[i].Data = append(platform[i].Data, []byte(" +rootkit")...)
		}
	}
	return platform
}

func (tb *Testbed) register(name string, key ed25519.PublicKey) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	tb.directory[name] = append(ed25519.PublicKey(nil), key...)
}

// Verify is the testbed's identity registry: every entity authenticates
// channel peers against it.
func (tb *Testbed) Verify(name string, key ed25519.PublicKey) error {
	tb.mu.Lock()
	want, ok := tb.directory[name]
	tb.mu.Unlock()
	if !ok {
		return fmt.Errorf("cloudsim: unknown peer %q", name)
	}
	if !cryptoutil.KeyEqual(want, key) {
		return fmt.Errorf("cloudsim: identity key mismatch for %q", name)
	}
	return nil
}

// CorruptNextImage makes the next launch stream a tampered image (the
// startup-integrity failure injection).
func (tb *Testbed) CorruptNextImage() {
	tb.mu.Lock()
	tb.tamperNext = true
	tb.mu.Unlock()
}

func (tb *Testbed) imageTamper(name string, data []byte) []byte {
	tb.mu.Lock()
	tamper := tb.tamperNext
	tb.tamperNext = false
	tb.mu.Unlock()
	if !tamper {
		return data
	}
	out := append([]byte(nil), data...)
	if len(out) > 0 {
		out[0] ^= 0xFF
	}
	return out
}

// RunFor advances virtual time by d, executing periodic attestations as
// they come due. It serializes against in-flight nova api requests, so a
// seeded run meets every deadline at the same virtual instant. Each
// pass drives the same concurrent engine the real-time daemon uses: due
// appraisals of one batch run in parallel on the engine's worker pool and
// the pass waits for the batch, so the deterministic virtual-clock loop
// still observes every deadline exactly once.
func (tb *Testbed) RunFor(d time.Duration) {
	tb.opMu.Lock()
	defer tb.opMu.Unlock()
	end := tb.Clock.Now() + d
	for {
		ctrl := tb.ctrl()
		ctrl.ReconcileNow()
		due, ok := tb.nextPeriodicDue()
		if rDue, rOK := ctrl.NextReconcileDue(); rOK && (!ok || rDue < due) {
			due, ok = rDue, true
		}
		if !ok || due > end {
			break
		}
		if now := tb.Clock.Now(); due > now {
			tb.Clock.Advance(due - now)
		}
		for _, as := range tb.AttestServers {
			as.RunDue()
		}
	}
	if now := tb.Clock.Now(); now < end {
		tb.Clock.Advance(end - now)
	}
	tb.ctrl().ReconcileNow()
}

// ctrl returns the currently installed controller; it changes across
// RestartController, so clock-driving loops re-read it each step.
func (tb *Testbed) ctrl() *controller.Controller {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	return tb.Ctrl
}

// Health assembles the per-entity health report for the operator /healthz
// endpoint: the controller and every Attestation Server with their breaker
// states, plus one liveness row per cloud server.
func (tb *Testbed) Health() []obs.EntityHealth {
	out := []obs.EntityHealth{tb.Ctrl.Health()}
	for _, as := range tb.AttestServers {
		out = append(out, as.Health())
	}
	names := make([]string, 0, len(tb.Servers))
	for name := range tb.Servers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out = append(out, obs.EntityHealth{Entity: name, Alive: true})
	}
	return out
}

// nextPeriodicDue returns the earliest periodic deadline across all
// attestation clusters.
func (tb *Testbed) nextPeriodicDue() (time.Duration, bool) {
	var min time.Duration
	found := false
	for _, as := range tb.AttestServers {
		if due, ok := as.NextDue(); ok && (!found || due < min) {
			min = due
			found = true
		}
	}
	return min, found
}

// ServerOf returns the server object hosting the VM.
func (tb *Testbed) ServerOf(vid string) (*server.Server, error) {
	name, err := tb.Ctrl.VMServer(vid)
	if err != nil {
		return nil, err
	}
	srv, ok := tb.Servers[name]
	if !ok {
		return nil, fmt.Errorf("cloudsim: controller names unknown server %q", name)
	}
	return srv, nil
}

// GuestOf returns the guest OS inside a hosted VM (for infection).
func (tb *Testbed) GuestOf(vid string) (*guest.OS, error) {
	srv, err := tb.ServerOf(vid)
	if err != nil {
		return nil, err
	}
	return srv.Guest(vid)
}

// LaunchCoResident places a VM directly on a named server (bypassing the
// scheduler) — how the experiments position attacker VMs next to victims
// ("attack:rfa:<vid>" is the Resource-Freeing attacker of the cached-server
// VM <vid> hosted there).
func (tb *Testbed) LaunchCoResident(serverName, workloadName string, pin int) (string, error) {
	srv, ok := tb.Servers[serverName]
	if !ok {
		return "", fmt.Errorf("cloudsim: no server %q", serverName)
	}
	tb.mu.Lock()
	tb.nextCoVM++
	vid := fmt.Sprintf("covm-%03d", tb.nextCoVM)
	tb.mu.Unlock()
	img, err := tb.Images.Get("cirros")
	if err != nil {
		return "", err
	}
	flavor, err := image.FlavorByName("small")
	if err != nil {
		return "", err
	}
	if workloadName == "attack:cpu-starver" {
		flavor.VCPUs = 2
	}
	err = srv.Launch(server.LaunchSpec{
		Vid:         vid,
		ImageName:   "cirros",
		ImageDigest: img.Digest(),
		Flavor:      flavor,
		Workload:    workloadName,
		Pin:         pin,
	})
	if err != nil {
		return "", err
	}
	return vid, nil
}

// Customer is a cloud customer: the protocol initiator and end-verifier.
type Customer = customer.Customer

// NewCustomer registers a fresh customer identity and connects it to the
// controller's nova api.
func (tb *Testbed) NewCustomer(name string) (*Customer, error) {
	id, err := cryptoutil.NewIdentity(name, tb.rand)
	if err != nil {
		return nil, err
	}
	tb.register(id.Name, id.Public())
	return customer.Connect(customer.Config{
		Identity:      id,
		Network:       tb.Net,
		Addr:          tb.ControllerAddr,
		ControllerKey: tb.ctrlID.Public(),
		RPC:           tb.opts.RPC,
	})
}

// RegisterIdentity adds an externally provisioned identity (like a CLI
// customer's) to the trust directory so its channels authenticate.
func (tb *Testbed) RegisterIdentity(name string, pub ed25519.PublicKey) {
	tb.register(name, pub)
}
