package obs

import (
	"strings"
	"testing"
	"time"

	"cloudmonatt/internal/metrics"
)

// TestOperatorOutputPinned pins /metrics and Registry.Render byte for byte
// on one registry holding each instrument kind: a duration summary fed past
// the reservoir bound whose mean has a sub-millisecond fraction, an integer
// summary whose median interpolates onto a .5, and a counter. A change to
// how a summary is kept, read or rounded shows here as a diff.
func TestOperatorOutputPinned(t *testing.T) {
	reg := metrics.NewRegistry()
	for i := 0; i < 5000; i++ {
		reg.Summary("appraise/runtime-integrity").Observe(time.Duration(i%997)*37*time.Microsecond + time.Duration(333+i%2))
	}
	for i := int64(1); i <= 100; i++ {
		reg.IntSummary("ledger/batch-size").Observe(i)
	}
	reg.Counter("appraise/backend-tpm").Add(7)

	var b strings.Builder
	WritePrometheus(&b, map[string]*metrics.Registry{"attestsrv": reg})
	const wantProm = `# TYPE attestsrv_appraise_runtime_integrity_seconds summary
attestsrv_appraise_runtime_integrity_seconds{quantile="0.5"} 0.018204334
attestsrv_appraise_runtime_integrity_seconds{quantile="0.95"} 0.035002333
attestsrv_appraise_runtime_integrity_seconds{quantile="0.99"} 0.036482333
attestsrv_appraise_runtime_integrity_seconds_sum 91.8591625
attestsrv_appraise_runtime_integrity_seconds_count 5000
# TYPE attestsrv_ledger_batch_size summary
attestsrv_ledger_batch_size{quantile="0.5"} 51
attestsrv_ledger_batch_size{quantile="0.95"} 95
attestsrv_ledger_batch_size{quantile="0.99"} 99
attestsrv_ledger_batch_size_sum 5050
attestsrv_ledger_batch_size_count 100
# TYPE attestsrv_appraise_backend_tpm_total counter
attestsrv_appraise_backend_tpm_total 7
`
	if got := b.String(); got != wantProm {
		t.Errorf("WritePrometheus:\n%s\nwant:\n%s", got, wantProm)
	}

	const wantRender = "" +
		"appraise/runtime-integrity               n=5000 mean=18ms p50=18ms p95=35ms min=0s max=37ms\n" +
		"ledger/batch-size                        n=100 mean=50.5 p50=51 p95=95 min=1 max=100\n" +
		"appraise/backend-tpm                     n=7\n"
	if got := reg.Render(); got != wantRender {
		t.Errorf("Render:\n%s\nwant:\n%s", got, wantRender)
	}
}
