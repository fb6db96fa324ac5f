package lint

import (
	"path/filepath"
	"testing"
)

// TestFactsRoundTrip drives the facts store end to end: compute a real
// fact over a fixture package and read it back by object.
func TestFactsRoundTrip(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	loader.alias = map[string]string{"cloudmonatt/internal/shardroutedep": filepath.Join("testdata", "src", "shardroutedep")}
	pkgs, err := loader.Load("cloudmonatt/internal/shardroutedep")
	if err != nil {
		t.Fatal(err)
	}
	pkg := pkgs[0]
	obj := pkg.Types.Scope().Lookup("MethodRebind")
	if obj == nil {
		t.Fatal("fixture constant MethodRebind not found")
	}
	if got, want := objectKey(obj), "cloudmonatt/internal/shardroutedep.MethodRebind"; got != want {
		t.Fatalf("objectKey = %q, want %q", got, want)
	}

	pass := newPass(ShardRoute, pkg, make(factStore))
	ShardRoute.Facts(pass)
	if got, ok := pass.Fact(obj, "vmAddressed"); !ok || got != "rebind-fixture" {
		t.Fatalf("fact after the facts pass = %q, %v; want rebind-fixture", got, ok)
	}
	if _, ok := pass.Fact(obj, "blocks"); ok {
		t.Fatal("a fact never exported reads back as present")
	}
}
