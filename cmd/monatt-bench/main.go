// Command monatt-bench regenerates the tables and figures of the
// CloudMonatt paper's evaluation on the simulated cloud and prints the same
// rows/series the paper reports, in virtual time.
//
// Usage:
//
//	monatt-bench [-seed N] [-exp all|<id>]
//
// The ids are those of bench.Artefacts (table1, fig4 ... rfa). One id prints
// exactly that artefact's rendering, so at -seed 1 the output is byte for
// byte internal/bench/testdata/<id>.golden; all prints every artefact in
// table order with a blank line between two.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cloudmonatt/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	ids := make([]string, len(bench.Artefacts))
	for i, a := range bench.Artefacts {
		ids[i] = a.ID
	}
	fs := flag.NewFlagSet("monatt-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "simulation seed")
	exp := fs.String("exp", "all", "artefact to regenerate: all, "+strings.Join(ids, ", "))
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	printed := 0
	for _, a := range bench.Artefacts {
		if *exp != "all" && *exp != a.ID {
			continue
		}
		out, err := a.Run(*seed)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", a.ID, err)
			return 1
		}
		if printed > 0 {
			fmt.Fprintln(stdout)
		}
		fmt.Fprint(stdout, out)
		printed++
	}
	if printed == 0 {
		fmt.Fprintf(stderr, "monatt-bench: unknown -exp %q; the ids are all, %s\n", *exp, strings.Join(ids, ", "))
		return 2
	}
	return 0
}
