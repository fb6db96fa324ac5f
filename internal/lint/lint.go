// Package lint is monatt-vet's analysis engine: a small, dependency-free
// analogue of golang.org/x/tools/go/analysis that encodes CloudMonatt's
// protocol invariants as compile-time checks.
//
// The paper's security argument rests on rules the Go compiler cannot see:
// nonces N1–N3 must be fresh per attempt, quotes and MACs must be compared
// in constant time, simulation code must use the injected virtual clock,
// and every RPC crossing an entity boundary must carry a deadline
// (Zhang & Lee, ISCA'15 §4–5). Each rule is an Analyzer; the monatt-vet
// driver (cmd/monatt-vet) runs them over type-checked packages and fails
// the build on any finding.
//
// Suppression is explicit and audited. Two comment directives exist:
//
//	//lint:wallclock <justification>   – allow wall-clock time on this line
//	//lint:ignore <analyzer> <reason>  – suppress one analyzer on this line
//
// Both require a non-empty justification; a bare directive is itself a
// diagnostic. A directive applies to findings on its own line or, when it
// stands alone, on the line directly below it.
package lint

import (
	"encoding/json"
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
	// Suppressed marks a finding waived by an audited directive;
	// SuppressedBy carries the directive's justification. Run and RunAll
	// drop suppressed findings; Analyze keeps them when asked (-json).
	Suppressed   bool
	SuppressedBy string
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

	facts *FactStore
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

// ExportFact attaches a named, JSON-serializable fact to a package-level
// object, visible to later passes over packages that import this one.
func (p *Pass) ExportFact(obj types.Object, name string, value any) {
	if p.facts == nil {
		return
	}
	_ = p.facts.export(p.Pkg.Path(), obj, name, value)
}

// ImportFact loads a fact attached to obj (by this or an earlier-analyzed
// package) into out, reporting whether one existed.
func (p *Pass) ImportFact(obj types.Object, name string, out any) bool {
	if p.facts == nil {
		return false
	}
	raw, ok := p.facts.lookup(obj, name)
	if !ok {
		return false
	}
	return json.Unmarshal(raw, out) == nil
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		VClockOnly,
		NonceFresh,
		ConstTime,
		CtxDeadline,
		SpanEnd,
		MetricsName,
		SecretFlow,
		IntentBracket,
		ShardRoute,
		LockOrder,
	}
}

// AnalyzeOptions configures a full analysis session.
type AnalyzeOptions struct {
	// Loader, when set, contributes every module package it has cached
	// (dependencies of the requested ones) to the facts phase.
	Loader *Loader
	// KeepSuppressed returns directive-suppressed findings (marked) rather
	// than dropping them.
	KeepSuppressed bool
}

// Analyze is the full driver: it computes facts for the dependency closure
// of pkgs in topological order, then runs the analyzers' diagnostic passes
// over pkgs.
func Analyze(pkgs []*Package, analyzers []*Analyzer, opt AnalyzeOptions) []Diagnostic {
	store := NewFactStore()

	factPkgs := pkgs
	if opt.Loader != nil {
		seen := make(map[string]bool, len(pkgs))
		for _, p := range pkgs {
			seen[p.Path] = true
		}
		for _, p := range opt.Loader.Cached() {
			if !seen[p.Path] {
				factPkgs = append(factPkgs, p)
				seen[p.Path] = true
			}
		}
	}
	for _, pkg := range dependencyOrder(factPkgs) {
		runFacts(pkg, analyzers, store)
	}

	var out []Diagnostic
	for _, pkg := range pkgs {
		ds := runDiagnostics(pkg, analyzers, store)
		for _, d := range ds {
			if d.Suppressed && !opt.KeepSuppressed {
				continue
			}
			out = append(out, d)
		}
	}
	return out
}

// runFacts executes every analyzer's facts pass over one package.
func runFacts(pkg *Package, analyzers []*Analyzer, store *FactStore) {
	for _, a := range analyzers {
		if a.Facts == nil {
			continue
		}
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			facts:    store,
		}
		a.Facts(pass)
	}
}

// runDiagnostics executes the diagnostic passes over one package, marking
// directive-suppressed findings, appending malformed-directive and
// unused-waiver diagnostics, and sorting the result.
func runDiagnostics(pkg *Package, analyzers []*Analyzer, store *FactStore) []Diagnostic {
	var out []Diagnostic
	dirs := collectDirectives(pkg.Fset, pkg.Files)
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			facts:    store,
		}
		a.Run(pass)
		for _, d := range pass.diags {
			if dir := dirs.suppressing(pkg.Fset, d); dir != nil {
				d.Suppressed = true
				d.SuppressedBy = dir.reason
			}
			out = append(out, d)
		}
	}
	out = append(out, dirs.malformed...)
	out = append(out, dirs.unused(ran)...)
	sortDiagnostics(pkg.Fset, out)
	return out
}

// Run executes the given analyzers over one loaded package and returns the
// surviving diagnostics: facts are computed for this package alone,
// directive-suppressed findings are dropped, malformed directives and
// unused waivers are added. Cross-package facts require Analyze.
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	return Analyze([]*Package{pkg}, analyzers, AnalyzeOptions{})
}

// RunAll runs analyzers over every package — facts first, in dependency
// order — and concatenates the surviving findings.
func RunAll(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	return Analyze(pkgs, analyzers, AnalyzeOptions{})
}

func sortDiagnostics(fset *token.FileSet, ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		pi, pj := fset.Position(ds[i].Pos), fset.Position(ds[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return ds[i].Analyzer < ds[j].Analyzer
	})
}

// --- directives ---

// directive is one parsed //lint: comment.
type directive struct {
	analyzer string // analyzer suppressed ("vclockonly" for wallclock)
	verb     string // "wallclock" or "ignore"
	reason   string // the justification text
	file     string
	line     int       // the directive's own line
	pos      token.Pos // for unused-waiver diagnostics
	used     bool      // did it suppress at least one finding?
}

type directiveSet struct {
	byLine    map[string]map[int][]*directive // file → line → directives
	all       []*directive
	malformed []Diagnostic
}

// collectDirectives scans all comments for //lint:wallclock and
// //lint:ignore, validating that each carries a justification.
func collectDirectives(fset *token.FileSet, files []*ast.File) *directiveSet {
	ds := &directiveSet{byLine: make(map[string]map[int][]*directive)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				verb, rest, _ := strings.Cut(text, " ")
				rest = strings.TrimSpace(rest)
				var d *directive
				switch verb {
				case "wallclock":
					if rest == "" {
						ds.malformed = append(ds.malformed, Diagnostic{
							Pos:      c.Pos(),
							Analyzer: "directive",
							Message:  "//lint:wallclock requires a justification (why is wall-clock time correct here?)",
						})
						continue
					}
					d = &directive{analyzer: "vclockonly", verb: "wallclock", reason: rest}
				case "ignore":
					name, reason, _ := strings.Cut(rest, " ")
					reason = strings.TrimSpace(reason)
					if name == "" || reason == "" {
						ds.malformed = append(ds.malformed, Diagnostic{
							Pos:      c.Pos(),
							Analyzer: "directive",
							Message:  "//lint:ignore requires an analyzer name and a reason",
						})
						continue
					}
					d = &directive{analyzer: name, verb: "ignore", reason: reason}
				default:
					ds.malformed = append(ds.malformed, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "directive",
						Message:  fmt.Sprintf("unknown directive //lint:%s (want wallclock or ignore)", verb),
					})
					continue
				}
				d.file, d.line, d.pos = pos.Filename, pos.Line, c.Pos()
				if ds.byLine[d.file] == nil {
					ds.byLine[d.file] = make(map[int][]*directive)
				}
				ds.byLine[d.file][d.line] = append(ds.byLine[d.file][d.line], d)
				ds.all = append(ds.all, d)
			}
		}
	}
	return ds
}

// suppressing returns the directive — on the diagnostic's line, or on the
// line directly above it — that names the diagnostic's analyzer, marking
// it used; nil when none applies.
func (ds *directiveSet) suppressing(fset *token.FileSet, d Diagnostic) *directive {
	pos := fset.Position(d.Pos)
	lines := ds.byLine[pos.Filename]
	if lines == nil {
		return nil
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, dir := range lines[line] {
			if dir.analyzer == d.Analyzer {
				dir.used = true
				return dir
			}
		}
	}
	return nil
}

// unused reports a diagnostic for every directive that suppressed nothing,
// provided the analyzer it targets actually ran (a waiver for an analyzer
// excluded from this run cannot be judged stale).
func (ds *directiveSet) unused(ran map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, dir := range ds.all {
		if dir.used || !ran[dir.analyzer] {
			continue
		}
		out = append(out, Diagnostic{
			Pos:      dir.pos,
			Analyzer: "directive",
			Message: fmt.Sprintf("unused //lint:%s directive: no %s finding here to suppress — remove it",
				dir.verb, dir.analyzer),
		})
	}
	return out
}
