package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"cloudmonatt/internal/metrics"
)

// promQuantiles are the quantile labels exported per summary.
var promQuantiles = []float64{0.5, 0.95, 0.99}

// sanitizeMetricName maps registry names (e.g. "attest/appraise.one-time")
// onto the Prometheus metric-name grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func sanitizeMetricName(name string) string {
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus renders every registry in regs as Prometheus text
// exposition (version 0.0.4). Duration summaries export in seconds as
// <prefix>_<name>_seconds with {quantile} series plus _sum/_count;
// integer summaries likewise (unitless); counters export as
// <prefix>_<name>_total. Each line comes from a consistent
// metrics.Snapshot, so count, sum and quantiles always describe the same
// observation set. Registries render in sorted prefix order so scrapes
// are stable.
func WritePrometheus(w io.Writer, regs map[string]*metrics.Registry) {
	prefixes := make([]string, 0, len(regs))
	for p := range regs {
		prefixes = append(prefixes, p)
	}
	sort.Strings(prefixes)
	for _, prefix := range prefixes {
		if regs[prefix] == nil {
			continue
		}
		snap := regs[prefix].Snapshot()
		for _, s := range snap.Summaries {
			full := sanitizeMetricName(prefix+"_"+s.Name) + "_seconds"
			fmt.Fprintf(w, "# TYPE %s summary\n", full)
			for _, q := range promQuantiles {
				fmt.Fprintf(w, "%s{quantile=%q} %g\n", full, fmt.Sprintf("%g", q), s.Value.Quantile(q).Seconds())
			}
			fmt.Fprintf(w, "%s_sum %g\n", full, s.Value.Sum.Seconds())
			fmt.Fprintf(w, "%s_count %d\n", full, s.Value.Count)
		}
		for _, s := range snap.IntSummaries {
			full := sanitizeMetricName(prefix + "_" + s.Name)
			fmt.Fprintf(w, "# TYPE %s summary\n", full)
			for _, q := range promQuantiles {
				fmt.Fprintf(w, "%s{quantile=%q} %d\n", full, fmt.Sprintf("%g", q), s.Value.Quantile(q))
			}
			fmt.Fprintf(w, "%s_sum %d\n", full, s.Value.Sum)
			fmt.Fprintf(w, "%s_count %d\n", full, s.Value.Count)
		}
		for _, c := range snap.Counters {
			full := sanitizeMetricName(prefix+"_"+c.Name) + "_total"
			fmt.Fprintf(w, "# TYPE %s counter\n", full)
			fmt.Fprintf(w, "%s %d\n", full, c.Value)
		}
	}
}

// writeStoreCounters renders the span store's accounting of itself: how
// many spans were recorded, and how many the bound evicted.
func writeStoreCounters(w io.Writer, st *Store) {
	fmt.Fprintf(w, "# TYPE obs_spans_total counter\nobs_spans_total %d\n", st.Total())
	fmt.Fprintf(w, "# TYPE obs_spans_dropped_total counter\nobs_spans_dropped_total %d\n", st.Dropped())
}
