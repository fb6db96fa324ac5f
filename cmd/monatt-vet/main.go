// monatt-vet runs CloudMonatt's protocol-invariant analyzers
// (internal/lint) over module packages and fails on any finding.
//
// Usage:
//
//	go run ./cmd/monatt-vet ./...
//	go run ./cmd/monatt-vet -only consttime,secretflow ./internal/secchan
//	go run ./cmd/monatt-vet -list
//	go run ./cmd/monatt-vet -t ./...
//
// Exit status: 0 clean, 1 findings, 2 usage or load error.
//
// The analyzers encode rules the compiler cannot see: virtual-clock
// discipline (vclockonly), nonce freshness across retries (noncefresh),
// constant-time comparison of secret-derived material (consttime), metric
// naming (metricsname), secret-taint flow (secretflow), intent-ledger
// bracketing of side effects (intentbracket), shard-routing provenance
// (shardroute), and lock discipline (lockorder). Suppress a finding only
// with an audited directive, //lint:ignore <analyzer> <why>; a directive
// that suppresses nothing, or names no analyzer of the suite, is itself a
// finding.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cloudmonatt/internal/lint"
)

func main() {
	var (
		only   = flag.String("only", "", "comma-separated analyzer names to run (default: all)")
		list   = flag.Bool("list", false, "list analyzers and exit")
		timing = flag.Bool("t", false, "print load and analysis wall times")
	)
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-13s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		want := strings.Split(*only, ",")
		var picked []*lint.Analyzer
		for _, a := range analyzers {
			for _, n := range want {
				if strings.TrimSpace(n) == a.Name {
					picked = append(picked, a)
				}
			}
		}
		analyzers = picked
	}
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
	diags := lint.Analyze(loader, pkgs, analyzers)
	tRun := time.Since(t1)

	for _, d := range diags {
		fmt.Println(d.String(loader.Fset))
	}
	if *timing {
		fmt.Fprintf(os.Stderr, "monatt-vet: %d packages, load+typecheck %v, analysis %v\n",
			len(pkgs), tLoad.Round(time.Millisecond), tRun.Round(time.Millisecond))
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "monatt-vet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
