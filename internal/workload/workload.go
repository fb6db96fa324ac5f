// Package workload provides the vCPU programs used by the paper's
// experiments: SPEC2006-like CPU-bound victim programs (bzip2, hmmer,
// astar), the six cloud service benchmarks (database, file, web, app,
// stream, mail), and simple probes.
//
// The paper only relies on each workload's *contention profile* — how much
// CPU it demands and in what burst pattern — so every workload is a
// calibrated duty-cycle model: run `busy`, block `idle`, with deterministic
// jitter drawn from the simulation RNG.
package workload

import (
	"fmt"
	"time"

	"cloudmonatt/internal/sim"
	"cloudmonatt/internal/xen"
)

// Service is an endless duty-cycle workload: Busy CPU time followed by Idle
// blocked time, each jittered by ±Jitter fraction.
type Service struct {
	Name   string
	Busy   sim.Time
	Idle   sim.Time
	Jitter float64 // fraction of Busy/Idle, e.g. 0.2 for ±20%
}

// NextBurst implements xen.Program.
func (s *Service) NextBurst(env xen.Env, self *xen.VCPU) xen.Burst {
	rng, busy, idle := env.Rand(), s.Busy, s.Idle
	if s.Jitter > 0 {
		busy += sim.Time(float64(busy) * s.Jitter * (2*rng.Float64() - 1))
		idle += sim.Time(float64(idle) * s.Jitter * (2*rng.Float64() - 1))
	}
	if busy < 100*time.Microsecond {
		busy = 100 * time.Microsecond
	}
	if idle < 0 {
		idle = 0
	}
	// Real software issues a background trickle of locked operations
	// (atomics in allocators, refcounts); the bus-covert detector must not
	// mistake it for signaling.
	return xen.Burst{Run: busy, Block: idle, BusLocks: int(rng.Int63n(3))}
}

// Job is a finite CPU-bound program that consumes Total CPU time in bursts
// of BurstLen, then completes. It models a SPEC-like victim program.
type Job struct {
	Name     string
	Total    sim.Time
	BurstLen sim.Time

	left sim.Time
	init bool
}

// NextBurst implements xen.Program.
func (j *Job) NextBurst(env xen.Env, self *xen.VCPU) xen.Burst {
	if !j.init {
		j.left = j.Total
		j.init = true
	}
	if j.left <= 0 {
		return xen.Burst{Done: true}
	}
	run := j.BurstLen
	if run > j.left {
		run = j.left
	}
	j.left -= run
	return xen.Burst{Run: run, Done: j.left <= 0}
}

// Remaining returns the CPU time the job still needs.
func (j *Job) Remaining() sim.Time {
	if !j.init {
		return j.Total
	}
	return j.left
}

// Spinner is an endless CPU-bound program: it always wants the CPU, in
// bursts of the given length with no blocking (it yields between bursts).
// The covert-channel receiver is a Spinner with a fine burst so its own run
// trace resolves the sender's occupancy.
func Spinner(burst sim.Time) xen.Program {
	return xen.ProgramFunc(func(env xen.Env, self *xen.VCPU) xen.Burst {
		return xen.Burst{Run: burst}
	})
}

// Idle is a program that halts forever: the VM exists but consumes no CPU.
func Idle() xen.Program {
	return xen.ProgramFunc(func(env xen.Env, self *xen.VCPU) xen.Burst {
		return xen.Burst{Run: 0, Block: time.Hour}
	})
}

// Victim programs from SPEC2006 used in the paper's Fig. 6/7, calibrated as
// (total CPU demand, burst length). Only relative magnitudes matter.
var victims = map[string]Job{
	"bzip2":  {Name: "bzip2", Total: 400 * time.Millisecond, BurstLen: 8 * time.Millisecond},
	"hmmer":  {Name: "hmmer", Total: 500 * time.Millisecond, BurstLen: 12 * time.Millisecond},
	"astar":  {Name: "astar", Total: 450 * time.Millisecond, BurstLen: 6 * time.Millisecond},
	"mcf":    {Name: "mcf", Total: 550 * time.Millisecond, BurstLen: 10 * time.Millisecond},
	"sjeng":  {Name: "sjeng", Total: 350 * time.Millisecond, BurstLen: 5 * time.Millisecond},
	"gobmk":  {Name: "gobmk", Total: 420 * time.Millisecond, BurstLen: 7 * time.Millisecond},
	"libqtm": {Name: "libqtm", Total: 380 * time.Millisecond, BurstLen: 9 * time.Millisecond},
}

// VictimNames lists the victim programs used in the paper's figures, in
// presentation order.
var VictimNames = []string{"bzip2", "hmmer", "astar"}

// NewVictim returns a fresh instance of the named SPEC-like program.
func NewVictim(name string) (*Job, error) {
	j, ok := victims[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown victim program %q", name)
	}
	cp := j
	return &cp, nil
}

// Cloud service benchmark profiles (paper §4.5.1, Fig. 6/7/10): Database,
// Web and App are CPU-bound; File, Stream and Mail are I/O-bound.
var services = map[string]Service{
	// CPU-bound services run long bursts (several tick periods), so like
	// any CPU hog they absorb credit debits and contend fairly — the paper
	// observes them costing a co-resident victim its fair 50% share.
	"database": {Name: "database", Busy: 24 * time.Millisecond, Idle: 6 * time.Millisecond, Jitter: 0.2},
	"web":      {Name: "web", Busy: 18 * time.Millisecond, Idle: 6 * time.Millisecond, Jitter: 0.3},
	"app":      {Name: "app", Busy: 21 * time.Millisecond, Idle: 7 * time.Millisecond, Jitter: 0.25},
	"file":     {Name: "file", Busy: 1 * time.Millisecond, Idle: 7 * time.Millisecond, Jitter: 0.3},
	"stream":   {Name: "stream", Busy: 1500 * time.Microsecond, Idle: 6 * time.Millisecond, Jitter: 0.2},
	"mail":     {Name: "mail", Busy: 800 * time.Microsecond, Idle: 8 * time.Millisecond, Jitter: 0.4},
}

// ServiceNames lists the cloud benchmarks in the paper's presentation order.
var ServiceNames = []string{"database", "file", "web", "app", "stream", "mail"}

// CPUBound reports whether the named service is in the paper's CPU-bound
// class (Database, Web, App).
func CPUBound(name string) bool {
	switch name {
	case "database", "web", "app":
		return true
	}
	return false
}

// NewService returns a fresh instance of the named cloud service benchmark.
func NewService(name string) (*Service, error) {
	s, ok := services[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown service %q", name)
	}
	cp := s
	return &cp, nil
}

// DutyCycle returns the nominal fraction of CPU the service demands.
func (s *Service) DutyCycle() float64 {
	return float64(s.Busy) / float64(s.Busy+s.Idle)
}
