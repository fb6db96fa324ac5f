package lint

import (
	"go/ast"
	"go/types"
)

// The facts layer makes the analyzers cross-package, in the style of
// golang.org/x/tools/go/analysis facts: while analyzing one package, an
// analyzer may attach a named string fact to any package-level object it
// can see (a function, method, constant, or interface method). Packages
// are analyzed in dependency order, so when a dependent package is
// analyzed the facts of everything it imports are already present.
//
// Facts are what let lockorder know that ledger.Append parks the caller on
// the group-commit channel three packages away, let intentbracket know that
// a helper takes custody of an open intent, and let shardroute recognize a
// VM-addressed method constant it has never seen the declaration of.
//
// Facts live in memory for one run: computing them is a small fraction of
// a run that has to load and type-check every package anyway.

// A factKey names one fact: the object it is attached to plus the fact
// name, scoped by convention to one analyzer ("blocks", "effect", ...).
type factKey struct{ object, name string }

// A factStore holds every exported fact of a run.
type factStore map[factKey]string

// objectKey renders the stable cross-package key for a package-level
// object: "pkg/path.Name" for functions, constants and variables,
// "pkg/path.(Type).Name" for methods (including interface methods).
func objectKey(obj types.Object) string {
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			if named := namedOf(recv.Type()); named != nil {
				return f.Pkg().Path() + ".(" + named.Obj().Name() + ")." + f.Name()
			}
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// ExportFact attaches a named fact to a package-level object, visible to
// later passes over this package and the packages that import it.
func (p *Pass) ExportFact(obj types.Object, name, value string) {
	p.facts[factKey{objectKey(obj), name}] = value
}

// Fact returns the named fact attached to obj, if any.
func (p *Pass) Fact(obj types.Object, name string) (string, bool) {
	if obj.Pkg() == nil {
		return "", false
	}
	v, ok := p.facts[factKey{objectKey(obj), name}]
	return v, ok
}

// eachFuncDecl calls fn for every function declaration with a body.
func eachFuncDecl(files []*ast.File, fn func(*ast.FuncDecl)) {
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}

// exportToFixedPoint exports the named fact for every function of the
// package that derive gives one, in rounds until a round adds none, so
// same-package helper chains settle whatever their declaration order. A
// function keeps the first value it gets; derive sees earlier rounds'
// facts. Facts only accumulate, so the rounds end.
func exportToFixedPoint(pass *Pass, name string, derive func(*ast.FuncDecl) (string, bool)) {
	for changed := true; changed; {
		changed = false
		eachFuncDecl(pass.Files, func(fd *ast.FuncDecl) {
			obj := pass.Info.Defs[fd.Name]
			if obj == nil {
				return
			}
			if _, done := pass.Fact(obj, name); done {
				return
			}
			if v, ok := derive(fd); ok {
				pass.ExportFact(obj, name, v)
				changed = true
			}
		})
	}
}
