// Package lint is monatt-vet's analysis engine: a small, dependency-free
// analogue of golang.org/x/tools/go/analysis that encodes CloudMonatt's
// protocol invariants as compile-time checks.
//
// The paper's security argument rests on rules the Go compiler cannot see:
// nonces N1–N3 must be fresh per attempt, quotes and MACs must be compared
// in constant time, simulation code must use the injected virtual clock,
// and fleet side effects must be bracketed by intent entries (Zhang & Lee,
// ISCA'15 §4–5). Each rule is an Analyzer; cmd/monatt-vet runs them over
// type-checked packages and fails the build on any finding.
//
// Suppression is explicit and audited. One comment directive exists:
//
//	//lint:ignore <analyzer> <reason>  – suppress one analyzer on this line
//
// It requires a known analyzer name and a non-empty reason; anything else
// is itself a diagnostic. A directive applies to findings on its own line
// or, when it stands alone, on the line directly below it.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check.
type Analyzer struct {
	// Name identifies the analyzer in output and in //lint:ignore.
	Name string
	// Doc is the one-paragraph description shown by monatt-vet -list.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
	// Facts, when set, is the analyzer's fact-computation pass. It runs
	// over every package in dependency order before any Run pass, so the
	// facts a package exports are visible when its dependents are
	// analyzed. Facts passes report nothing; they only ExportFact.
	Facts func(*Pass)
}

// A Diagnostic is one finding, positioned in the shared FileSet.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// String renders a diagnostic as file:line:col: message [analyzer].
func (d Diagnostic) String(fset *token.FileSet) string {
	return fmt.Sprintf("%s: %s [%s]", fset.Position(d.Pos), d.Message, d.Analyzer)
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	facts factStore
	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		VClockOnly,
		NonceFresh,
		ConstTime,
		MetricsName,
		SecretFlow,
		IntentBracket,
		ShardRoute,
		LockOrder,
	}
}

// Analyze runs a whole analysis: it computes facts for every package the
// loader has loaded (pkgs and their module dependencies), each after the
// packages it imports, then runs the analyzers' diagnostic passes over
// pkgs and returns the findings no directive suppressed.
func Analyze(l *Loader, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	facts := make(factStore)
	for _, pkg := range l.loaded {
		for _, a := range analyzers {
			if a.Facts != nil {
				a.Facts(newPass(a, pkg, facts))
			}
		}
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		out = append(out, runDiagnostics(pkg, analyzers, facts)...)
	}
	return out
}

func newPass(a *Analyzer, pkg *Package, facts factStore) *Pass {
	return &Pass{Analyzer: a, Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, Info: pkg.Info, facts: facts}
}

// runDiagnostics executes the diagnostic passes over one package, dropping
// directive-suppressed findings, appending malformed-directive and
// unused-waiver diagnostics, and sorting the result.
func runDiagnostics(pkg *Package, analyzers []*Analyzer, facts factStore) []Diagnostic {
	var out []Diagnostic
	dirs := collectDirectives(pkg.Fset, pkg.Files)
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
		pass := newPass(a, pkg, facts)
		a.Run(pass)
		for _, d := range pass.diags {
			if !dirs.suppresses(pkg.Fset, d) {
				out = append(out, d)
			}
		}
	}
	out = append(out, dirs.malformed...)
	out = append(out, dirs.unused(ran)...)
	sort.SliceStable(out, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(out[i].Pos), pkg.Fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}

// --- directives ---

// directive is one parsed //lint:ignore comment.
type directive struct {
	analyzer string
	file     string
	line     int       // the directive's own line
	pos      token.Pos // for unused-waiver diagnostics
	used     bool      // did it suppress at least one finding?
}

type directiveSet struct {
	all       []*directive
	malformed []Diagnostic
}

// collectDirectives scans all comments for //lint: directives, validating
// that each names a known analyzer and carries a reason.
func collectDirectives(fset *token.FileSet, files []*ast.File) *directiveSet {
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	ds := &directiveSet{}
	bad := func(pos token.Pos, format string, args ...any) {
		ds.malformed = append(ds.malformed, Diagnostic{Pos: pos, Analyzer: "directive", Message: fmt.Sprintf(format, args...)})
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:")
				if !ok {
					continue
				}
				verb, rest, _ := strings.Cut(text, " ")
				name, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
				switch {
				case verb != "ignore":
					bad(c.Pos(), "unknown directive //lint:%s (want ignore)", verb)
				case name == "" || strings.TrimSpace(reason) == "":
					bad(c.Pos(), "//lint:ignore requires an analyzer name and a reason")
				case !known[name]:
					bad(c.Pos(), "//lint:ignore names unknown analyzer %q", name)
				default:
					pos := fset.Position(c.Pos())
					ds.all = append(ds.all, &directive{analyzer: name, file: pos.Filename, line: pos.Line, pos: c.Pos()})
				}
			}
		}
	}
	return ds
}

// suppresses reports whether a directive on the diagnostic's line, or on
// the line directly above it, names the diagnostic's analyzer, marking
// that directive used.
func (ds *directiveSet) suppresses(fset *token.FileSet, d Diagnostic) bool {
	pos := fset.Position(d.Pos)
	for _, dir := range ds.all {
		if dir.analyzer == d.Analyzer && dir.file == pos.Filename && (dir.line == pos.Line || dir.line == pos.Line-1) {
			dir.used = true
			return true
		}
	}
	return false
}

// unused reports a diagnostic for every directive that suppressed nothing,
// provided the analyzer it targets actually ran (a waiver for an analyzer
// left out by -only cannot be judged stale).
func (ds *directiveSet) unused(ran map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, dir := range ds.all {
		if dir.used || !ran[dir.analyzer] {
			continue
		}
		out = append(out, Diagnostic{
			Pos:      dir.pos,
			Analyzer: "directive",
			Message:  fmt.Sprintf("unused //lint:ignore directive: no %s finding here to suppress — remove it", dir.analyzer),
		})
	}
	return out
}
