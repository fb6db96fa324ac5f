package lint

import (
	"go/ast"
	"regexp"
	"strings"

	"cloudmonatt/internal/metrics"
)

// MetricsName keeps the Prometheus surface coherent: every counter and
// summary registered on a metrics.Registry must be named
// "entity/noun-verb" — lowercase slash-separated segments with hyphens
// inside a segment ("periodic/ticks", "ledger/batch-size",
// "controller/rpc-retries"). Dots and underscores are rejected: the
// operator-facing names in /metrics are derived mechanically from these
// strings, and one "attestsrv.rpc.retries" among "ledger/append" splits
// dashboards and alert rules across two grammars.
//
// The first segment (the "entity") must additionally come from
// metrics.KnownEntities, the subsystem table this analyzer reads, so a new
// metric lands inside an existing dashboard grouping or the table is
// extended deliberately.
//
// Names built at runtime are checked on their constant prefix
// ("appraise/" + prop); fully dynamic names are skipped.
var MetricsName = &Analyzer{
	Name: "metricsname",
	Doc: "metrics.Registry names must follow the entity/noun-verb " +
		"convention: lowercase segments separated by '/', hyphens within a segment, " +
		"first segment from metrics.KnownEntities",
	Run: runMetricsName,
}

var (
	// fullMetricName: at least two segments, each [a-z0-9]+(-[a-z0-9]+)*.
	fullMetricName = regexp.MustCompile(`^[a-z0-9]+(-[a-z0-9]+)*(/[a-z0-9]+(-[a-z0-9]+)*)+$`)
	// metricPrefix: a valid proper prefix of such a name (may end mid-
	// segment or at a separator).
	metricPrefix = regexp.MustCompile(`^[a-z0-9]+(-[a-z0-9]+)*(/[a-z0-9-]*)*$`)
)

// registryCtors are the metrics.Registry methods that name a metric.
var registryCtors = map[string]bool{
	"cloudmonatt/internal/metrics.Registry.Counter":    true,
	"cloudmonatt/internal/metrics.Registry.Summary":    true,
	"cloudmonatt/internal/metrics.Registry.IntSummary": true,
}

func runMetricsName(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 1 {
				return true
			}
			if _, key := callee(pass.Info, call); !registryCtors[key] {
				return true
			}
			arg := call.Args[0]
			if name, ok := constString(pass.Info, arg); ok {
				if !fullMetricName.MatchString(name) {
					pass.Reportf(arg.Pos(),
						"metric name %q breaks the entity/noun-verb convention "+
							"(lowercase segments joined by '/', hyphens within a segment, at least two segments)", name)
					return true
				}
				checkEntity(pass, arg, name)
				return true
			}
			// Dynamic name: validate the leftmost constant prefix if any.
			if prefix, ok := constPrefix(pass, arg); ok {
				if !metricPrefix.MatchString(prefix) {
					pass.Reportf(arg.Pos(),
						"metric name prefix %q breaks the entity/noun-verb convention "+
							"(lowercase segments joined by '/', hyphens within a segment)", prefix)
					return true
				}
				// The entity is decided once the prefix covers the first
				// separator; shorter prefixes leave it dynamic, unchecked.
				if strings.Contains(prefix, "/") {
					checkEntity(pass, arg, prefix)
				}
			}
			return true
		})
	}
}

// checkEntity validates the first segment against the shared subsystem
// table in internal/metrics.
func checkEntity(pass *Pass, arg ast.Expr, name string) {
	entity, _, _ := strings.Cut(name, "/")
	if !metrics.KnownEntities[entity] {
		pass.Reportf(arg.Pos(),
			"metric entity %q is not in metrics.KnownEntities; pick an existing "+
				"subsystem entity or add the new one to the shared table so dashboards "+
				"can group it", entity)
	}
}

// constPrefix descends the left spine of a + concatenation to the leftmost
// constant-foldable operand.
func constPrefix(pass *Pass, e ast.Expr) (string, bool) {
	for {
		bin, ok := ast.Unparen(e).(*ast.BinaryExpr)
		if !ok {
			break
		}
		e = bin.X
	}
	return constString(pass.Info, e)
}
