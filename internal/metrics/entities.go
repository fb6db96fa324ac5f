package metrics

// KnownEntities is the closed set of first segments ("entities") a metric
// name may start with. The entity names the subsystem that owns the
// metric; dashboards and alert rules group by it, so an ad-hoc entity
// ("appraise-backend/...") silently falls outside every panel. Both the
// runtime registry consumers and the metricsname analyzer read this one
// table — add the entity here first when a new subsystem grows metrics.
var KnownEntities = map[string]bool{
	"attestsrv":  true, // attestation server RPC plumbing
	"appraise":   true, // property appraisal latency and outcomes
	"periodic":   true, // periodic-attestation engine
	"ledger":     true, // append-only attestation ledger
	"controller": true, // cloud controller operations
	"reconcile":  true, // reconciliation loop
	"obs":        true, // telemetry accounting for itself (the span store)
}
