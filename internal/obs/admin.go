package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strconv"

	"cloudmonatt/internal/metrics"
)

// PeerHealth reports one entity's view of one downstream peer: the
// circuit-breaker state of the ReconnectClient that talks to it.
type PeerHealth struct {
	Peer    string `json:"peer"`
	Breaker string `json:"breaker"` // closed | open | half-open
}

// QueueHealth reports the state of an entity's reconcile workqueue: how
// many keys are ready, how many wait on timers (backoff or requeue-after
// schedules), and how many the queue bound has evicted since start.
type QueueHealth struct {
	Ready   int    `json:"ready"`
	Delayed int    `json:"delayed"`
	Dropped uint64 `json:"dropped"`
}

// EntityHealth reports one entity's liveness plus its downstream peers.
type EntityHealth struct {
	Entity string       `json:"entity"`
	Alive  bool         `json:"alive"`
	Peers  []PeerHealth `json:"peers,omitempty"`
	// Queue, when present, is the entity's reconcile-queue state (the
	// controller reports its level-triggered control loop here).
	Queue *QueueHealth `json:"queue,omitempty"`
}

// AdminConfig assembles the operator surface. Every field is optional;
// absent pieces serve empty (but well-formed) responses.
type AdminConfig struct {
	// Registries maps a Prometheus metric prefix (entity name) to that
	// entity's metrics registry.
	Registries map[string]*metrics.Registry
	// Store is the shared span store backing /traces.
	Store *Store
	// Health returns per-entity liveness + breaker states for /healthz.
	Health func() []EntityHealth
}

// defaultTraceLimit bounds /traces responses unless ?limit= overrides it.
const defaultTraceLimit = 50

// AdminMux builds the operator HTTP handler:
//
//	GET /metrics        Prometheus text exposition of every registry, and
//	                    the span store's obs_spans_total and
//	                    obs_spans_dropped_total
//	GET /healthz        JSON per-entity liveness + breaker states; 503 if
//	                    any entity reports not-alive
//	GET /traces         recent completed traces as JSON, newest first;
//	                    ?vm=<vid> filters by VM id, ?limit=<n> caps count,
//	                    ?all=1 includes traces with no ended root span
//	GET /debug/pprof/*  net/http/pprof
func AdminMux(cfg AdminConfig) *http.ServeMux {
	mux := http.NewServeMux()

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, cfg.Registries)
		if cfg.Store != nil {
			writeStoreCounters(w, cfg.Store)
		}
	})

	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		var entities []EntityHealth
		if cfg.Health != nil {
			entities = cfg.Health()
		}
		status := http.StatusOK
		for _, e := range entities {
			if !e.Alive {
				status = http.StatusServiceUnavailable
				break
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			OK       bool           `json:"ok"`
			Entities []EntityHealth `json:"entities"`
		}{OK: status == http.StatusOK, Entities: entities})
	})

	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		f := TraceFilter{
			Vid:          r.URL.Query().Get("vm"),
			CompleteOnly: r.URL.Query().Get("all") == "",
			Limit:        defaultTraceLimit,
		}
		if s := r.URL.Query().Get("limit"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 0 {
				http.Error(w, "bad limit", http.StatusBadRequest)
				return
			}
			f.Limit = n
		}
		var traces []Trace
		if cfg.Store != nil {
			traces = cfg.Store.Traces(f)
		}
		if traces == nil {
			traces = []Trace{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(traces)
	})

	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	return mux
}
