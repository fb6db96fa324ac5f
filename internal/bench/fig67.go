package bench

import (
	"crypto/rand"
	"fmt"
	"time"

	"cloudmonatt/internal/attack"
	"cloudmonatt/internal/monitor"
	"cloudmonatt/internal/sim"
	"cloudmonatt/internal/trust"
	"cloudmonatt/internal/trust/driver"
	"cloudmonatt/internal/workload"
	"cloudmonatt/internal/xen"
)

// CoTenants is the attacker-VM sweep of Fig. 6/7, in the paper's order.
var CoTenants = []string{"idle", "database", "file", "web", "app", "stream", "mail", "cpu_avail"}

// newTPMMonitor wires a Monitor Module to a fresh register bank and the tpm
// trust-backend driver — the benches always model the paper's own
// architecture, so the backend is fixed. It also returns the TPM's AIK for
// the appraisal references.
func newTPMMonitor(hv *xen.Hypervisor, platform []monitor.Component) (*monitor.Module, []byte, error) {
	drv, err := driver.Open(driver.BackendTPM, driver.Config{ServerName: "bench", Rand: rand.Reader})
	if err != nil {
		return nil, nil, err
	}
	mon, err := monitor.New(hv, trust.NewRegisters(0), drv, platform, nil)
	return mon, drv.AttestationKey(), err
}

// Fig6Result reproduces Fig. 6: victim relative execution time under each
// co-tenant.
type Fig6Result struct {
	*Table // rows = victim programs, cols = co-tenants; values = slowdown ×
}

// cotenantDomain starts the co-tenant VM on the shared pCPU.
func cotenantDomain(hv *xen.Hypervisor, name string) (*xen.Domain, error) {
	switch name {
	case "idle":
		d := hv.NewDomain("cotenant-idle", 256, 0, workload.Idle())
		d.WakeAll()
		return d, nil
	case "cpu_avail":
		return attack.NewStarvationDomain(hv, "cotenant-attack", 0)
	default:
		svc, err := workload.NewService(name)
		if err != nil {
			return nil, err
		}
		d := hv.NewDomain("cotenant-"+name, 256, 0, svc)
		d.WakeAll()
		return d, nil
	}
}

// victimRunTime runs one victim program against one co-tenant on a shared
// pCPU and returns the completion time.
func victimRunTime(seed int64, victimName, cotenant string) (time.Duration, error) {
	k := sim.NewKernel(seed)
	hv := xen.New(k, xen.DefaultConfig(), 1)
	job, err := workload.NewVictim(victimName)
	if err != nil {
		return 0, err
	}
	victim := hv.NewDomain("victim", 256, 0, job)
	victim.WakeAll()
	if _, err := cotenantDomain(hv, cotenant); err != nil {
		return 0, err
	}
	horizon := 120 * time.Second
	k.RunUntil(horizon)
	at, ok := victim.DoneAt()
	if !ok {
		return 0, fmt.Errorf("bench: %s never completed against %s within %v", victimName, cotenant, horizon)
	}
	return at, nil
}

// Fig6 sweeps victims × co-tenants and reports execution time relative to
// the idle-co-tenant baseline. Paper shape: ≈1× for I/O-bound co-tenants
// (file, stream, mail), ≈2× for CPU-bound ones (database, web, app), and
// >10× under the CPU availability attack.
func Fig6(seed int64) (Fig6Result, error) {
	t := NewTable("Figure 6: victim relative execution time", "victim \\ co-tenant", "x", workload.VictimNames, CoTenants)
	for _, v := range workload.VictimNames {
		base, err := victimRunTime(seed, v, "idle")
		if err != nil {
			return Fig6Result{}, err
		}
		for _, c := range CoTenants {
			at, err := victimRunTime(seed, v, c)
			if err != nil {
				return Fig6Result{}, err
			}
			t.Set(v, c, float64(at)/float64(base))
		}
	}
	return Fig6Result{t}, nil
}

// Fig7Result reproduces Fig. 7: relative CPU usage of attacker and victim
// during the measurement window, per victim program and co-tenant — the
// exact measurement the VMM Profile Tool reports for availability
// attestation (§4.5.2).
type Fig7Result struct {
	// Victim[victim][cotenant] and Attacker[victim][cotenant] are CPU
	// shares in [0,1] over the window.
	Victim   *Table
	Attacker *Table
}

// Fig7 measures both parties' relative CPU usage over a 1 s window starting
// 200 ms into co-execution.
func Fig7(seed int64) (Fig7Result, error) {
	victimT := NewTable("Figure 7: victim relative CPU usage", "victim \\ co-tenant", "share", workload.VictimNames, CoTenants)
	attackT := NewTable("Figure 7: attacker relative CPU usage", "victim \\ co-tenant", "share", workload.VictimNames, CoTenants)
	const warm = 200 * time.Millisecond
	const window = time.Second
	for _, v := range workload.VictimNames {
		for _, c := range CoTenants {
			k := sim.NewKernel(seed)
			hv := xen.New(k, xen.DefaultConfig(), 1)
			// Use a long-running variant of the victim so it is still
			// executing throughout the window.
			job, err := workload.NewVictim(v)
			if err != nil {
				return Fig7Result{}, err
			}
			job.Total = time.Hour
			victim := hv.NewDomain("victim", 256, 0, job)
			victim.WakeAll()
			co, err := cotenantDomain(hv, c)
			if err != nil {
				return Fig7Result{}, err
			}
			k.RunUntil(warm)
			v0, a0 := victim.TotalRuntime(), co.TotalRuntime()
			k.RunUntil(warm + window)
			victimT.Set(v, c, float64(victim.TotalRuntime()-v0)/float64(window))
			attackT.Set(v, c, float64(co.TotalRuntime()-a0)/float64(window))
		}
	}
	return Fig7Result{Victim: victimT, Attacker: attackT}, nil
}

// Render formats Fig. 7 for the terminal.
func (r Fig7Result) Render() string {
	return r.Victim.Render() + "\n" + r.Attacker.Render()
}
