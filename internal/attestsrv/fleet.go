package attestsrv

import (
	"time"

	"cloudmonatt/internal/metrics"
	"cloudmonatt/internal/obs"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/wire"
)

// FleetEngine exposes the periodic monitoring engine standalone: one shard's
// scheduler without the appraisal stack behind it. The repository
// benchmark's attestsrv.periodic_sched_us_per_tick leaf (benchmark/layers.go)
// and the churn race test drive it directly — they need the engine's exact
// shedding, accounting and handoff semantics at task counts where running
// full appraisals per tick would measure crypto, not scheduling.
type FleetEngine struct {
	e *periodicEngine
}

// NewFleetEngine builds a standalone engine on the given clock and
// appraisal function. jitter may be nil when no task uses random intervals.
func NewFleetEngine(cfg PeriodicConfig, now func() time.Duration, jitter func(max int64) int64, appraise func(vid, serverID string, p properties.Property) (*wire.Report, error)) *FleetEngine {
	if jitter == nil {
		jitter = func(max int64) int64 { return max / 2 }
	}
	fn := func(_ obs.SpanContext, vid, serverID string, p properties.Property) (*wire.Report, error) {
		return appraise(vid, serverID, p)
	}
	return &FleetEngine{e: newPeriodicEngine(cfg, now, jitter, fn, metrics.NewRegistry(), obs.NewTracer(nil, "fleet", now))}
}

// StartRandom arms periodic attestation at random intervals around the
// mean frequency (drawn from the engine's jitter source), so fleet-scale
// load spreads instead of ticking in lockstep.
func (f *FleetEngine) StartRandom(vid, serverID string, p properties.Property, freq time.Duration) error {
	return f.e.start(vid, serverID, p, freq, true)
}

// RunDue dispatches and waits for every due task, returning the committed
// reports.
func (f *FleetEngine) RunDue() []*wire.Report {
	return f.e.runDue()
}

// NextDue returns the earliest pending deadline.
func (f *FleetEngine) NextDue() (time.Duration, bool) {
	return f.e.nextDue()
}
