// monatt-vet runs CloudMonatt's protocol-invariant analyzers
// (internal/lint) over module packages and fails on any finding.
//
// Usage:
//
//	go run ./cmd/monatt-vet ./...
//	go run ./cmd/monatt-vet -only consttime,ctxdeadline ./internal/rpc
//	go run ./cmd/monatt-vet -json ./...
//	go run ./cmd/monatt-vet -list
//
// Exit status: 0 clean, 1 findings, 2 usage or load error.
//
// The analyzers encode rules the compiler cannot see: virtual-clock
// discipline (vclockonly), nonce freshness across retries (noncefresh),
// constant-time comparison of secret-derived material (consttime), a
// caller's deadline on every raw rpc.Client call (ctxdeadline), span hygiene
// (spanend), metric naming (metricsname), secret-taint flow (secretflow),
// intent-ledger bracketing of side effects (intentbracket), shard-routing
// provenance (shardroute), and lock discipline (lockorder). Suppress a
// finding only with an audited directive: //lint:wallclock <why> or
// //lint:ignore <analyzer> <why>; a directive that suppresses nothing is
// itself a finding.
//
// -json emits one object per finding (analyzer, pos, message, suppression
// state) including directive-suppressed ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cloudmonatt/internal/lint"
)

// jsonDiag is the -json wire form of one finding.
type jsonDiag struct {
	Analyzer     string `json:"analyzer"`
	Pos          string `json:"pos"`
	Message      string `json:"message"`
	Suppressed   bool   `json:"suppressed"`
	SuppressedBy string `json:"suppressedBy,omitempty"`
}

func main() {
	var (
		only    = flag.String("only", "", "comma-separated analyzer names to run (default: all)")
		list    = flag.Bool("list", false, "list analyzers and exit")
		timing  = flag.Bool("t", false, "print load and analysis wall times")
		exclude = flag.String("exclude", "", "comma-separated analyzer names to skip")
		asJSON  = flag.Bool("json", false, "emit findings as JSON lines (includes suppressed findings, marked)")
	)
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-13s %s\n", a.Name, a.Doc)
		}
		return
	}
	analyzers = filterAnalyzers(analyzers, *only, *exclude)
	if len(analyzers) == 0 {
		fmt.Fprintln(os.Stderr, "monatt-vet: no analyzers selected")
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "monatt-vet:", err)
		os.Exit(2)
	}
	t0 := time.Now()
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "monatt-vet:", err)
		os.Exit(2)
	}
	tLoad := time.Since(t0)

	t1 := time.Now()
	diags := lint.Analyze(pkgs, analyzers, lint.AnalyzeOptions{
		Loader:         loader,
		KeepSuppressed: *asJSON,
	})
	tRun := time.Since(t1)

	failing := 0
	enc := json.NewEncoder(os.Stdout)
	for _, d := range diags {
		if !d.Suppressed {
			failing++
		}
		if *asJSON {
			_ = enc.Encode(jsonDiag{
				Analyzer:     d.Analyzer,
				Pos:          loader.Fset.Position(d.Pos).String(),
				Message:      d.Message,
				Suppressed:   d.Suppressed,
				SuppressedBy: d.SuppressedBy,
			})
			continue
		}
		fmt.Println(d.String(loader.Fset))
	}
	if *timing {
		fmt.Fprintf(os.Stderr, "monatt-vet: %d packages, load+typecheck %v, analysis %v\n",
			len(pkgs), tLoad.Round(time.Millisecond), tRun.Round(time.Millisecond))
	}
	if failing > 0 {
		fmt.Fprintf(os.Stderr, "monatt-vet: %d finding(s)\n", failing)
		os.Exit(1)
	}
}

func filterAnalyzers(all []*lint.Analyzer, only, exclude string) []*lint.Analyzer {
	keep := func(string) bool { return true }
	if only != "" {
		want := map[string]bool{}
		for _, n := range strings.Split(only, ",") {
			want[strings.TrimSpace(n)] = true
		}
		keep = func(n string) bool { return want[n] }
	}
	skip := map[string]bool{}
	for _, n := range strings.Split(exclude, ",") {
		if n = strings.TrimSpace(n); n != "" {
			skip[n] = true
		}
	}
	var out []*lint.Analyzer
	for _, a := range all {
		if keep(a.Name) && !skip[a.Name] {
			out = append(out, a)
		}
	}
	return out
}
