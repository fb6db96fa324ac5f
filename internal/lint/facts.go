package lint

import (
	"encoding/json"
	"fmt"
	"go/types"
)

// The facts layer makes the analyzers cross-package, in the style of
// golang.org/x/tools/go/analysis facts: while analyzing one package, an
// analyzer may attach a named, JSON-serializable fact to any package-level
// object it can see (a function, method, constant, or interface method).
// Packages are analyzed in dependency order, so when a dependent package is
// analyzed the facts of everything it imports are already present and can
// be imported by object.
//
// Facts are what let lockorder know that ledger.Append parks the caller on
// the group-commit channel three packages away, let intentbracket know that
// a helper takes custody of an open intent, and let shardroute recognize a
// VM-addressed method constant it has never seen the declaration of.
//
// Facts live in memory for one run: computing them is a small fraction of
// a run that has to load and type-check every package anyway.

// A FactKey names one fact: the object it is attached to plus the fact name.
type FactKey struct {
	// Object is the stable object key: "pkg/path.Name" for package-level
	// functions, constants and variables, "pkg/path.(Type).Name" for
	// methods (including interface methods).
	Object string
	// Name is the fact name, scoped by convention to one analyzer
	// ("blocks", "effect", "returnsSecret", "vmAddressed", ...).
	Name string
}

// A FactStore holds every exported fact of a run, grouped by the package
// that exported it.
type FactStore struct {
	byPkg map[string]map[FactKey]json.RawMessage
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{byPkg: make(map[string]map[FactKey]json.RawMessage)}
}

// ObjectKey renders the stable cross-package key for a package-level
// object, or "" when the object has no package (builtins, locals whose
// parent scope is not the package scope are keyed too — facts on locals are
// simply never importable from elsewhere, which is harmless).
func ObjectKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if f, ok := obj.(*types.Func); ok {
		if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
			recv := sig.Recv().Type()
			if named := namedOf(recv); named != nil {
				return f.Pkg().Path() + ".(" + named.Obj().Name() + ")." + f.Name()
			}
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// export records one fact. value must be JSON-marshalable.
func (s *FactStore) export(pkgPath string, obj types.Object, name string, value any) error {
	key := ObjectKey(obj)
	if key == "" {
		return fmt.Errorf("lint: cannot attach fact %q to object without a package", name)
	}
	raw, err := json.Marshal(value)
	if err != nil {
		return fmt.Errorf("lint: marshaling fact %q on %s: %w", name, key, err)
	}
	m := s.byPkg[pkgPath]
	if m == nil {
		m = make(map[FactKey]json.RawMessage)
		s.byPkg[pkgPath] = m
	}
	m[FactKey{Object: key, Name: name}] = raw
	return nil
}

// lookup finds a fact by object key, searching the exporting package first
// (facts live with the package that declares the object).
func (s *FactStore) lookup(obj types.Object, name string) (json.RawMessage, bool) {
	key := ObjectKey(obj)
	if key == "" || obj.Pkg() == nil {
		return nil, false
	}
	raw, ok := s.byPkg[obj.Pkg().Path()][FactKey{Object: key, Name: name}]
	return raw, ok
}

// dependencyOrder topologically sorts packages so every package appears
// after the packages it imports (module-internal edges only). The input
// order breaks ties, keeping runs deterministic.
func dependencyOrder(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	var (
		out     []*Package
		done    = make(map[string]bool)
		visit   func(p *Package)
		onStack = make(map[string]bool)
	)
	visit = func(p *Package) {
		if done[p.Path] || onStack[p.Path] {
			return
		}
		onStack[p.Path] = true
		for _, imp := range p.Types.Imports() {
			if dep, ok := byPath[imp.Path()]; ok {
				visit(dep)
			}
		}
		onStack[p.Path] = false
		done[p.Path] = true
		out = append(out, p)
	}
	for _, p := range pkgs {
		visit(p)
	}
	return out
}
