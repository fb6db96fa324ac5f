package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cloudmonatt/internal/metrics"
)

func adminGet(t *testing.T, cfg AdminConfig, url string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	AdminMux(cfg).ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	return rec
}

func TestAdminMetricsEndpoint(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("retries").Add(3)
	for i := 1; i <= 100; i++ {
		reg.Summary("appraise/vm-integrity").Observe(time.Duration(i) * time.Millisecond)
	}
	st := NewStore(4)
	tr := NewTracer(st, "controller", (&fakeClock{}).Now)
	for i := 0; i < 6; i++ {
		tr.Start(SpanContext{}, "w").End("")
	}
	cfg := AdminConfig{Registries: map[string]*metrics.Registry{"controller": reg}, Store: st}

	rec := adminGet(t, cfg, "/metrics")
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q is not Prometheus text exposition", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"controller_retries_total 3",
		`controller_appraise_vm_integrity_seconds{quantile="0.5"}`,
		`controller_appraise_vm_integrity_seconds{quantile="0.95"}`,
		"controller_appraise_vm_integrity_seconds_count 100",
		"# TYPE controller_appraise_vm_integrity_seconds summary",
		"# TYPE obs_spans_total counter\nobs_spans_total 6\n",
		"# TYPE obs_spans_dropped_total counter\nobs_spans_dropped_total 2\n",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, body)
		}
	}
}

func TestAdminHealthz(t *testing.T) {
	healthy := func() []EntityHealth {
		return []EntityHealth{
			{Entity: "controller", Alive: true, Peers: []PeerHealth{{Peer: "server-0", Breaker: "closed"}}},
			{Entity: "attest-server", Alive: true},
		}
	}
	rec := adminGet(t, AdminConfig{Health: healthy}, "/healthz")
	if rec.Code != 200 {
		t.Fatalf("healthy status = %d", rec.Code)
	}
	var got struct {
		OK       bool           `json:"ok"`
		Entities []EntityHealth `json:"entities"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if !got.OK || len(got.Entities) != 2 || got.Entities[0].Peers[0].Breaker != "closed" {
		t.Fatalf("healthz body = %+v", got)
	}

	sick := func() []EntityHealth {
		return []EntityHealth{{Entity: "controller", Alive: false}}
	}
	if rec := adminGet(t, AdminConfig{Health: sick}, "/healthz"); rec.Code != 503 {
		t.Fatalf("unhealthy status = %d, want 503", rec.Code)
	}
}

func TestAdminTraces(t *testing.T) {
	clock := &fakeClock{}
	st := NewStore(32)
	tr := NewTracer(st, "api", clock.Now)
	for i, vid := range []string{"vm-1", "vm-2"} {
		sp := tr.Start(SpanContext{}, "api:attest")
		sp.SetVM(vid, "p")
		clock.advance(time.Duration(i+1) * time.Millisecond)
		sp.End("")
	}
	open := tr.Start(SpanContext{}, "api:attest") // root never ends
	open.Child("inner").End("")
	cfg := AdminConfig{Store: st}

	var traces []Trace
	rec := adminGet(t, cfg, "/traces")
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &traces); err != nil {
		t.Fatal(err)
	}
	if len(traces) != 2 {
		t.Fatalf("default view returned %d traces, want 2 complete", len(traces))
	}

	rec = adminGet(t, cfg, "/traces?vm=vm-1")
	traces = nil
	if err := json.Unmarshal(rec.Body.Bytes(), &traces); err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 || traces[0].Vid != "vm-1" {
		t.Fatalf("?vm= filter returned %+v", traces)
	}

	rec = adminGet(t, cfg, "/traces?all=1")
	traces = nil
	if err := json.Unmarshal(rec.Body.Bytes(), &traces); err != nil {
		t.Fatal(err)
	}
	if len(traces) != 3 {
		t.Fatalf("?all=1 returned %d traces, want 3", len(traces))
	}

	if rec := adminGet(t, cfg, "/traces?limit=bogus"); rec.Code != 400 {
		t.Fatalf("bad limit status = %d, want 400", rec.Code)
	}
	if rec := adminGet(t, cfg, "/traces?limit=-1"); rec.Code != 400 {
		t.Fatalf("negative limit status = %d, want 400", rec.Code)
	}

	// Empty store must serve [] — not null.
	rec = adminGet(t, AdminConfig{}, "/traces")
	if strings.TrimSpace(rec.Body.String()) != "[]" {
		t.Fatalf("empty store body = %q, want []", rec.Body.String())
	}
}
