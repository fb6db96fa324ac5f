package lint

import "testing"

// TestRepoIsClean is the regression net behind the whole suite: the module
// must stay free of findings from every analyzer. In particular it pins the
// fixes this suite forced — constant-time comparison of keys and quotes
// (cryptoutil.ConstEqual in cryptoutil/secchan/wire), injected clocks in
// ledger and the rpc breaker, deadlines on every entity-boundary RPC, and
// the entity/noun-verb metric grammar. A reintroduced bytes.Equal on key
// material or a bare time.Now() in a protocol path fails this test, not
// just the separate monatt-vet CI step.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range RunAll(pkgs, All()) {
		t.Errorf("%s", d.String(loader.Fset))
	}
}

// TestCryptoScopeCoversDriverTree pins the consttime/math-rand scope to
// the trust-backend driver packages: scoping is by first path segment, so
// the "trust" entry must keep covering the whole driver subtree where
// evidence and measurement comparisons live.
func TestCryptoScopeCoversDriverTree(t *testing.T) {
	covered := []string{
		"cloudmonatt/internal/trust",
		"cloudmonatt/internal/trust/driver",
		"cloudmonatt/internal/trust/driver/sevsnp",
		"cloudmonatt/internal/vtpm",
	}
	for _, path := range covered {
		if !cryptoScoped(path) {
			t.Errorf("cryptoScoped(%q) = false, want true", path)
		}
	}
	uncovered := []string{
		"cloudmonatt/internal/monitor",
		"cloudmonatt/internal/interpret",
		"crypto/subtle",
	}
	for _, path := range uncovered {
		if cryptoScoped(path) {
			t.Errorf("cryptoScoped(%q) = true, want false", path)
		}
	}
}
