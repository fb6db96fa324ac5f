package lint

import (
	"path/filepath"
	"regexp"
	"testing"
)

// Fixtures follow the go/analysis analysistest convention: a comment
// `want `+"`regex`"+` on a line asserts that exactly that line carries a
// diagnostic matching the regex; every other line must be clean. Fixture
// packages live under testdata/src (invisible to the go tool) and are
// type-checked against the real module packages they import, under a
// synthetic import path (a loader alias) chosen to put them in the
// analyzer's scope.
func TestAnalyzerFixtures(t *testing.T) {
	cases := []struct {
		dir      string
		asPath   string
		analyzer *Analyzer
		// deps maps synthetic import paths to fixture dirs the main package
		// imports — the cross-package-fact cases. They are registered as
		// loader aliases, and the facts phase covers every package the
		// loader holds, so facts exported in a dep are visible in the fixture.
		deps map[string]string
	}{
		{"vclockonly", "cloudmonatt/internal/vclockonlyfix", VClockOnly, nil},
		{"noncefresh", "cloudmonatt/internal/noncefreshfix", NonceFresh, nil},
		// consttime's math/rand rule only applies inside key-handling
		// packages; the synthetic path plants the fixture there.
		{"consttime", "cloudmonatt/internal/cryptoutil/consttimefix", ConstTime, nil},
		{"metricsname", "cloudmonatt/internal/metricsnamefix", MetricsName, nil},
		{"secretflow", "cloudmonatt/internal/secretflowfix", SecretFlow,
			map[string]string{"cloudmonatt/internal/secretflowdep": "secretflowdep"}},
		{"intentbracket", "cloudmonatt/internal/intentbracketfix", IntentBracket,
			map[string]string{"cloudmonatt/internal/intentbracketdep": "intentbracketdep"}},
		{"shardroute", "cloudmonatt/internal/shardroutefix", ShardRoute,
			map[string]string{"cloudmonatt/internal/shardroutedep": "shardroutedep"}},
		{"lockorder", "cloudmonatt/internal/lockorderfix", LockOrder,
			map[string]string{"cloudmonatt/internal/lockorderdep": "lockorderdep"}},
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	loader.alias = make(map[string]string)
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			for path, dir := range tc.deps {
				loader.alias[path] = filepath.Join("testdata", "src", dir)
			}
			runFixture(t, loader, tc.dir, tc.asPath, tc.analyzer)
		})
	}
}

// wantPattern extracts the expectation regex from a fixture comment.
var wantPattern = regexp.MustCompile("want `([^`]+)`")

func runFixture(t *testing.T, loader *Loader, dir, asPath string, analyzer *Analyzer) {
	t.Helper()
	loader.alias[asPath] = filepath.Join("testdata", "src", dir)
	pkgs, err := loader.Load(asPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	pkg := pkgs[0]

	type lineKey struct {
		file string
		line int
	}
	wants := make(map[lineKey]*regexp.Regexp)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantPattern.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("bad want regex %q: %v", m[1], err)
				}
				pos := pkg.Fset.Position(c.Pos())
				wants[lineKey{pos.Filename, pos.Line}] = re
			}
		}
	}

	// Analyze computes facts over every package the loader has cached — in
	// particular the aliased dep packages — in dependency order before
	// diagnosing.
	ds := Analyze(loader, pkgs, []*Analyzer{analyzer})
	matched := make(map[lineKey]bool)
	for _, d := range ds {
		pos := pkg.Fset.Position(d.Pos)
		k := lineKey{pos.Filename, pos.Line}
		re, ok := wants[k]
		switch {
		case !ok:
			t.Errorf("unexpected diagnostic at %s:%d: %s [%s]", pos.Filename, pos.Line, d.Message, d.Analyzer)
		case !re.MatchString(d.Message):
			t.Errorf("diagnostic at %s:%d = %q does not match want %q", pos.Filename, pos.Line, d.Message, re)
		default:
			matched[k] = true
		}
	}
	for k, re := range wants {
		if !matched[k] {
			t.Errorf("missing diagnostic at %s:%d (want %q)", k.file, k.line, re)
		}
	}
}

// TestLoaderHonoursBuildConstraints loads a package that declares one
// function in an _amd64.go file and again behind //go:build !amd64, as the
// vendored field arithmetic does: exactly one of the two may load, and a
// //go:build ignore file never.
func TestLoaderHonoursBuildConstraints(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	loader.alias = map[string]string{"cloudmonatt/internal/buildtagsfix": filepath.Join("testdata", "src", "buildtags")}
	pkgs, err := loader.Load("cloudmonatt/internal/buildtagsfix")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	var names []string
	for _, f := range pkgs[0].Files {
		names = append(names, filepath.Base(loader.Fset.File(f.Pos()).Name()))
	}
	if len(names) != 2 || names[0] != "buildtags.go" {
		t.Fatalf("loaded %v, want buildtags.go and one file declaring mul", names)
	}
}
