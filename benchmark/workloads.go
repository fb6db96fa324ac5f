package main

import (
	"errors"
	"fmt"
	"math/rand"

	"cloudmonatt"
	"cloudmonatt/internal/ledger"
	"cloudmonatt/internal/rpc"
)

// workloadNames is the permanent list, in reporting order.
var workloadNames = []string{"attest-steady", "attest-fleet", "periodic", "churn"}

// bed is one round's testbed plus the driver state of its workload.
type bed struct {
	name string
	tb   *cloudmonatt.Testbed
	cu   *cloudmonatt.Customer
	vids []string // seed-shuffled visiting order
	rec  *recorder

	// appraisalsPerUnit is how many appraisal-kind ledger entries one
	// completed unit must add (the appraisal-count oracle).
	appraisalsPerUnit int
}

// launchRequest is the one VM shape every workload launches: all four
// properties provisioned, the stock allowlist, and a guest that stays
// healthy at four VMs per two-pCPU server. The guest is the I/O-bound
// "file" service: CPU-bound guests (database, web) packed that densely draw
// covert-channel false positives from the detector (6 and 3 in 3 072
// attestations over 12 seeds), "mail" idles below any CPU-share floor, and
// "file" drew none in 16 000 attestations over 20 seeds — the benchmark
// needs workloads on which no operation fails.
func launchRequest() cloudmonatt.LaunchRequest {
	return cloudmonatt.LaunchRequest{
		ImageName: "ubuntu",
		Flavor:    "small",
		Workload:  "file",
		Props:     cloudmonatt.AllProperties,
		Allowlist: []string{"init", "sshd", "cron", "rsyslogd", "agetty"},
		MinShare:  0.1,
		Pin:       -1,
	}
}

func launch(cu *cloudmonatt.Customer) (string, error) {
	res, err := cu.Launch(launchRequest())
	if err != nil {
		return "", err
	}
	if !res.OK {
		return "", fmt.Errorf("launch rejected: %s", res.Reason)
	}
	return res.Vid, nil
}

// attestHealthy is one on-demand attestation whose verdict must be healthy.
func attestHealthy(cu *cloudmonatt.Customer, vid string, p cloudmonatt.Property) error {
	v, err := cu.Attest(vid, p)
	if err != nil {
		return err
	}
	if !v.Healthy {
		return fmt.Errorf("healthy VM %s reported unhealthy for %s: %s", vid, p, v.Reason)
	}
	return nil
}

// setUp assembles the round's testbed: build, connect one customer, launch
// the fleet, arm the streams and run the warm-up ops. network is nil except
// in the traced run, which counts transport events from outside.
func setUp(name string, seed int64, network rpc.Network, rec *recorder) (*bed, error) {
	sz, ok := sizes[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	tb, err := cloudmonatt.NewTestbed(cloudmonatt.Options{Seed: seed, Servers: sz.servers, Shards: sz.shards, Network: network})
	if err != nil {
		return nil, err
	}
	b := &bed{name: name, tb: tb, rec: rec, appraisalsPerUnit: 1}
	if name == "churn" {
		// One warm-up cycle dials the attestation-server→cloud-server
		// channels, which outlive customers.
		b.appraisalsPerUnit = 3
		_, err := b.op(0)
		return b, err
	}
	if b.cu, err = tb.NewCustomer("bench"); err != nil {
		return nil, err
	}
	for i := 0; i < sz.vms; i++ {
		vid, err := launch(b.cu)
		if err != nil {
			return nil, err
		}
		b.vids = append(b.vids, vid)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(b.vids), func(i, j int) { b.vids[i], b.vids[j] = b.vids[j], b.vids[i] })
	if name == "periodic" {
		for _, vid := range b.vids {
			if err := b.cu.StartPeriodic(vid, cloudmonatt.RuntimeIntegrity, periodicRuntimeFreq); err != nil {
				return nil, err
			}
			if err := b.cu.StartPeriodic(vid, cloudmonatt.CPUAvailability, periodicCPUFreq); err != nil {
				return nil, err
			}
		}
		_, err := b.op(0)
		return b, err
	}
	for i := 0; i < warmupOps; i++ {
		if _, err := b.op(i); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// target maps the k-th on-demand attestation to its VM and property.
// attest-steady alternates the two integrity properties on its one VM;
// attest-fleet visits the VMs round-robin and attests all four properties
// on each visit, two of them windowed.
func (b *bed) target(k int) (string, cloudmonatt.Property) {
	props := cloudmonatt.AllProperties
	if b.name == "attest-steady" {
		props = []cloudmonatt.Property{cloudmonatt.StartupIntegrity, cloudmonatt.RuntimeIntegrity}
		return b.vids[0], props[k%len(props)]
	}
	return b.vids[(k/len(props))%len(b.vids)], props[k%len(props)]
}

// op runs the workload's i-th operation and returns the units of work it
// completed: attestations, delivered periodic reports or churn cycles. The
// caller samples latency as the operation's wall time over its units. An
// error means the operation failed.
func (b *bed) op(i int) (int, error) {
	switch b.name {
	case "attest-steady":
		vid, p := b.target(i)
		sp := b.rec.start("cloudsim.customer_attest", i)
		err := attestHealthy(b.cu, vid, p)
		sp.end()
		return 1, err
	case "attest-fleet":
		// One operation is one visit to a VM: an attestation of each of
		// the four properties. Sampling latency per visit keeps the sample
		// distribution unimodal; sampled per attestation it has a windowed
		// and a non-windowed mode of equal weight and p50 falls in the gap
		// between them, where it does not repeat.
		n := len(cloudmonatt.AllProperties)
		visit := b.rec.start("fleet.visit", i)
		defer visit.end()
		var errs []error
		for k := i * n; k < (i+1)*n; k++ {
			vid, p := b.target(k)
			sp := visit.child("cloudsim.customer_attest")
			errs = append(errs, attestHealthy(b.cu, vid, p))
			sp.end()
		}
		return n, errors.Join(errs...)
	case "periodic":
		return b.periodicStep(i)
	case "churn":
		return 1, b.churnCycle(i)
	}
	return 0, fmt.Errorf("unknown workload %q", b.name)
}

// periodicStep advances one virtual minute, letting every armed stream
// tick on the attestation server's engine, then drains and end-verifies
// every stream the way a polling customer does.
func (b *bed) periodicStep(i int) (int, error) {
	step := b.rec.start("periodic.step", i)
	defer step.end()
	sp := step.child("cloudsim.runfor")
	b.tb.RunFor(periodicStep)
	sp.end()
	sp = step.child("controller.fetch_periodic")
	defer sp.end()
	units := 0
	var errs []error
	for _, vid := range b.vids {
		for _, p := range []cloudmonatt.Property{cloudmonatt.RuntimeIntegrity, cloudmonatt.CPUAvailability} {
			vs, err := b.cu.FetchPeriodic(vid, p)
			if err != nil {
				errs = append(errs, err)
				continue
			}
			for _, v := range vs {
				if !v.Healthy {
					errs = append(errs, fmt.Errorf("healthy VM %s reported unhealthy for %s: %s", vid, p, v.Reason))
				}
			}
			units += len(vs)
		}
	}
	return units, errors.Join(errs...)
}

// churnCycle is one customer lifetime: connect (full secchan handshake),
// launch, two attestations, terminate, disconnect.
func (b *bed) churnCycle(i int) (err error) {
	cycle := b.rec.start("churn.cycle", i)
	defer cycle.end()
	sp := cycle.child("secchan.connect")
	cu, err := b.tb.NewCustomer(fmt.Sprintf("churn-%d", i))
	sp.end()
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, cu.Close()) }()
	sp = cycle.child("controller.launch")
	vid, err := launch(cu)
	sp.end()
	if err != nil {
		return err
	}
	sp = cycle.child("cloudsim.first_attest")
	err = attestHealthy(cu, vid, cloudmonatt.StartupIntegrity)
	sp.end()
	if err != nil {
		return err
	}
	sp = cycle.child("cloudsim.second_attest")
	err = attestHealthy(cu, vid, cloudmonatt.RuntimeIntegrity)
	sp.end()
	if err != nil {
		return err
	}
	sp = cycle.child("controller.terminate")
	err = cu.Terminate(vid)
	sp.end()
	return err
}

// appraisals counts the appraisal-kind entries in the evidence ledger.
func (b *bed) appraisals() (int, error) {
	es, err := b.tb.Ledger.Query(ledger.Filter{Kind: ledger.KindAppraisal})
	return len(es), err
}

// periodicCounters sums ticks and their outcomes per attestation server.
func periodicCounters(tb *cloudmonatt.Testbed) (ticks, produced, skipped, failures int64, balanced bool) {
	balanced = true
	for _, as := range tb.AttestServers {
		reg := as.Metrics()
		t := reg.Counter("periodic/ticks").Value()
		p := reg.Counter("periodic/produced").Value()
		s := reg.Counter("periodic/skipped").Value()
		f := reg.Counter("periodic/failures").Value()
		if t != p+s+f {
			balanced = false
		}
		ticks, produced, skipped, failures = ticks+t, produced+p, skipped+s, failures+f
	}
	return
}

// oracle is one end-of-round correctness check.
type oracle struct {
	Name string `json:"name"`
	Err  string `json:"err,omitempty"`
}

// checkRound runs the end-of-round oracles, outside the timed region.
// appraisalsBefore and units bracket the timed region. skipCanary exists
// for the smoke test only: it leaves the canary VM uninfected, which the
// canary oracle must then report.
func (b *bed) checkRound(appraisalsBefore, units int, skipCanary bool) []oracle {
	var out []oracle
	add := func(name string, err error) {
		o := oracle{Name: name}
		if err != nil {
			o.Err = err.Error()
		}
		out = append(out, o)
	}

	_, err := b.tb.Ledger.Verify()
	add("ledger-verify", err)

	after, err := b.appraisals()
	if err == nil && after-appraisalsBefore != units*b.appraisalsPerUnit {
		err = fmt.Errorf("%d appraisal entries added for %d units × %d", after-appraisalsBefore, units, b.appraisalsPerUnit)
	}
	add("appraisal-count", err)

	if b.name == "periodic" {
		err = nil
		if _, _, _, _, balanced := periodicCounters(b.tb); !balanced {
			err = errors.New("ticks != produced + skipped + failures on an attestation server")
		}
		add("periodic-accounting", err)
	}

	add("canary", b.canary(skipCanary))
	return out
}

// canary infects one VM with a rootkit and demands that the next
// runtime-integrity attestation says so: a change that caches verdicts or
// skips measurement turns this oracle red while every timing improves.
func (b *bed) canary(skip bool) error {
	cu, vid := b.cu, ""
	if len(b.vids) > 0 {
		vid = b.vids[0]
	} else {
		var err error
		if cu, err = b.tb.NewCustomer("canary"); err != nil {
			return err
		}
		defer cu.Close()
		if vid, err = launch(cu); err != nil {
			return err
		}
	}
	if !skip {
		g, err := b.tb.GuestOf(vid)
		if err != nil {
			return err
		}
		g.InfectRootkit("stealth-miner")
	}
	v, err := cu.Attest(vid, cloudmonatt.RuntimeIntegrity)
	if err != nil {
		return err
	}
	if v.Healthy {
		return fmt.Errorf("infected VM %s attested healthy", vid)
	}
	return nil
}
