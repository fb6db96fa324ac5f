package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one type-checked, non-test compilation unit of the module.
type Package struct {
	// Path is the package's import path (synthetic for fixtures).
	Path string
	// Dir is the directory the sources were read from.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Loader parses and type-checks module packages on demand. Loaded
// packages are cached for the lifetime of the loader, so a whole-module
// run type-checks each package (and each standard-library dependency)
// exactly once. Test files are not loaded: the invariants monatt-vet
// enforces are production-code rules, and tests legitimately use wall
// clocks and fixed nonces.
type Loader struct {
	Fset    *token.FileSet
	ModRoot string
	ModPath string

	std     types.Importer // stdlib, type-checked from GOROOT source
	cache   map[string]*Package
	loaded  []*Package        // the cache in load order: every package after its imports
	busy    map[string]bool   // cycle detection
	alias   map[string]string // synthetic import path → dir (fixtures)
	overlay map[string]string // source file path → contents read instead of the file
}

// NewLoader creates a loader for the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		root = parent
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		ModRoot: root,
		ModPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil),
		cache:   make(map[string]*Package),
		busy:    make(map[string]bool),
	}, nil
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if p, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(p), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", gomod)
}

// Load resolves patterns to module packages. Supported forms: "./..."
// (every package under the module root), "dir/..." (every package under
// dir), a directory path ("./internal/rpc"), or an import path
// ("cloudmonatt/internal/rpc"). Results are in deterministic path order.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	paths := make(map[string]bool)
	for _, pat := range patterns {
		expanded, err := l.expand(pat)
		if err != nil {
			return nil, err
		}
		for _, p := range expanded {
			paths[p] = true
		}
	}
	sorted := make([]string, 0, len(paths))
	for p := range paths {
		sorted = append(sorted, p)
	}
	sort.Strings(sorted)
	pkgs := make([]*Package, 0, len(sorted))
	for _, p := range sorted {
		pkg, err := l.loadPath(p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

func (l *Loader) expand(pattern string) ([]string, error) {
	pattern = filepath.ToSlash(pattern)
	switch {
	case pattern == "./..." || pattern == "...":
		return l.walk(l.ModRoot)
	case strings.HasSuffix(pattern, "/..."):
		base := strings.TrimSuffix(pattern, "/...")
		return l.walk(filepath.Join(l.ModRoot, l.relOf(base)))
	default:
		rel := l.relOf(pattern)
		if rel == "" {
			return []string{l.ModPath}, nil
		}
		return []string{l.ModPath + "/" + rel}, nil
	}
}

// relOf maps a pattern (dir or import path) to a module-relative slash path.
func (l *Loader) relOf(p string) string {
	p = strings.TrimPrefix(p, "./")
	if sub, ok := strings.CutPrefix(p, l.ModPath); ok {
		return strings.TrimPrefix(sub, "/")
	}
	return strings.Trim(p, "/")
}

// walk lists the import paths of every package directory under root,
// skipping testdata, hidden directories, and dirs with no non-test Go files.
func (l *Loader) walk(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		files, err := goSources(path)
		if err != nil || len(files) == 0 {
			return nil
		}
		rel, err := filepath.Rel(l.ModRoot, path)
		if err != nil {
			return err
		}
		if rel == "." {
			out = append(out, l.ModPath)
		} else {
			out = append(out, l.ModPath+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	return out, err
}

// goSources lists the non-test Go files of dir that the go tool would
// build for this GOOS/GOARCH: a file's _arch suffix and //go:build line
// count, so an assembly stub and its generic twin do not both load.
func goSources(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		out = append(out, filepath.Join(dir, name))
	}
	sort.Strings(out)
	return out, nil
}

// loadPath loads a module-internal import path (cached).
func (l *Loader) loadPath(path string) (*Package, error) {
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	if l.busy[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	var dir string
	if d, ok := l.alias[path]; ok {
		dir = d
	} else {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")
		dir = filepath.Join(l.ModRoot, filepath.FromSlash(rel))
	}
	l.busy[path] = true
	defer delete(l.busy, path)
	pkg, err := l.check(dir, path)
	if err != nil {
		return nil, err
	}
	l.cache[path] = pkg
	l.loaded = append(l.loaded, pkg)
	return pkg, nil
}

func (l *Loader) check(dir, path string) (*Package, error) {
	srcs, err := goSources(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: reading %s: %w", dir, err)
	}
	if len(srcs) == 0 {
		return nil, fmt.Errorf("lint: no Go sources in %s", dir)
	}
	var files []*ast.File
	for _, src := range srcs {
		var text any
		if t, ok := l.overlay[src]; ok {
			text = t
		}
		f, err := parser.ParseFile(l.Fset, src, text, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	// Load module-internal imports first so the importer below can serve
	// them from cache; order is dependency-first by recursion.
	for _, f := range files {
		for _, imp := range f.Imports {
			ipath := strings.Trim(imp.Path.Value, `"`)
			if ipath == l.ModPath || strings.HasPrefix(ipath, l.ModPath+"/") {
				if _, err := l.loadPath(ipath); err != nil {
					return nil, err
				}
			}
		}
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: importerFunc(l.importPkg)}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}, nil
}

func (l *Loader) importPkg(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		pkg, err := l.loadPath(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
