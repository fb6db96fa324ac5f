package lint

import (
	"path/filepath"
	"testing"
)

// TestFactsRoundTrip drives the facts store end to end: compute a real
// fact over a fixture package and import it back by object.
func TestFactsRoundTrip(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", "shardroutedep"), "cloudmonatt/internal/shardroutedep")
	if err != nil {
		t.Fatal(err)
	}
	obj := pkg.Types.Scope().Lookup("MethodRebind")
	if obj == nil {
		t.Fatal("fixture constant MethodRebind not found")
	}
	if got, want := ObjectKey(obj), "cloudmonatt/internal/shardroutedep.MethodRebind"; got != want {
		t.Fatalf("ObjectKey = %q, want %q", got, want)
	}

	store := NewFactStore()
	runFacts(pkg, []*Analyzer{ShardRoute}, store)
	pass := &Pass{Analyzer: ShardRoute, Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, Info: pkg.Info, facts: store}
	var fact vmAddressedFact
	if ok := pass.ImportFact(obj, "vmAddressed", &fact); !ok || fact.Method != "rebind-fixture" {
		t.Fatalf("fact after runFacts = %+v, %v; want Method rebind-fixture", fact, ok)
	}
}
