package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestRepoIsClean is the regression net behind the whole suite: the module
// must stay free of findings from every analyzer. In particular it pins the
// fixes this suite forced — constant-time comparison of keys and quotes
// (cryptoutil.ConstEqual in cryptoutil/secchan/wire), injected clocks in
// ledger and the rpc breaker, and the entity/noun-verb metric grammar. A
// reintroduced bytes.Equal on key material or a bare time.Now() in a
// protocol path fails this test, not just the separate monatt-vet CI step.
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
	for _, d := range Analyze(loader, pkgs, All()) {
		t.Errorf("%s", d.String(loader.Fset))
	}
}

// TestAnalyzersRefindTheirBug is what keeps an analyzer in the suite: each
// row puts back, in the real tree, the bug its analyzer once caught (or the
// shape of it), and the analyzer alone must report exactly that. The
// substitution reaches the type checker through the loader's overlay; the
// file on disk is untouched. An analyzer with no row here has not shown it
// still catches anything, and goes.
func TestAnalyzersRefindTheirBug(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks most of the module per row; skipped in -short")
	}
	const unbracketed = "appends no KindIntent ledger entry; a controller crash here is invisible to replay " +
		"(DESIGN.md §13 two-phase intent contract)"
	rows := []struct {
		analyzer *Analyzer
		file     string // module-relative
		old, new string
		// addImport names a package the replacement uses that the file
		// does not import yet.
		addImport string
		want      []string // base:line: message
	}{
		{
			analyzer: ConstTime, file: "internal/wire/wire.go",
			old: "cryptoutil.ConstEqual(e.Q3[:], want3[:])", new: "bytes.Equal(e.Q3[:], want3[:])", addImport: "bytes",
			want: []string{"wire.go:167: Q3 compared with bytes.Equal leaks a timing side channel; use crypto/subtle.ConstantTimeCompare"},
		},
		{
			analyzer: VClockOnly, file: "internal/ledger/ledger.go",
			old: "w.in, w.start = e, l.opts.Now()", new: "w.in, w.start = e, time.Now()",
			want: []string{"ledger.go:628: wall-clock time.Now in a vclock-wired package breaks seeded replay; " +
				"use the injected virtual clock or annotate //lint:ignore vclockonly <why>"},
		},
		{
			analyzer: MetricsName, file: "internal/ledger/ledger.go",
			old: `reg.Summary("ledger/append")`, new: `reg.Summary("ledger.append")`,
			want: []string{`ledger.go:396: metric name "ledger.append" breaks the entity/noun-verb convention ` +
				`(lowercase segments joined by '/', hyphens within a segment, at least two segments)`},
		},
		{
			analyzer: SecretFlow, file: "internal/customer/bootstrap.go",
			old: "cryptoutil.WriteSecretFile(bs.CustomerSeedPath, id.Seed())", new: "os.WriteFile(bs.CustomerSeedPath, id.Seed(), 0o600)",
			want: []string{"bootstrap.go:35: secret material (identity seed) flows into a plaintext file sink; " +
				"redact with cryptoutil.Redact or route through a sanctioned secret-handling helper"},
		},
		{
			analyzer: IntentBracket, file: "internal/controller/attest.go",
			old: "\tc.stateIntent(vid, to)\n", new: "",
			want: []string{
				`attest.go:318: SuspendVM performs (via setRunState) a "suspend" side effect but ` + unbracketed,
				`attest.go:323: ResumeVM performs (via setRunState) a "suspend" side effect but ` + unbracketed,
			},
		},
		{
			analyzer: ShardRoute, file: "internal/controller/route.go",
			old: "err := rt.client.CallFresh(ctx, attestsrv.MethodAppraise,", new: "cl := rt.client\n\terr := cl.CallFresh(ctx, attestsrv.MethodAppraise,",
			want: []string{`route.go:180: direct rpc call to VM-addressed method "appraise" bypasses shard routing; ` +
				"mint an attestRoute (routeForVM/routeForNode) and go through callRouted so wrong-shard redirects are followed"},
		},
		{
			analyzer: NonceFresh, file: "internal/controller/route.go",
			old: "err := rt.client.CallFresh(ctx, attestsrv.MethodAppraise,", new: "err := rt.client.CallCtx(ctx, attestsrv.MethodAppraise,",
			want: []string{`route.go:179: method "appraise" carries fresh nonce N2 and must go through CallFresh ` +
				"(plain CallCtx re-sends the same nonce on retry, which the peer's replay cache rejects)"},
		},
		{
			analyzer: LockOrder, file: "internal/server/server.go",
			old: "s.sessMu.Lock()\n\tdefer s.sessMu.Unlock()", new: "s.mu.Lock()\n\tdefer s.mu.Unlock()",
			want: []string{"server.go:566: contractually blocking (Certify) in Certify while Server.mu is held; " +
				"a parked goroutine keeps the lock and stalls every contender — release it first, or document the lock as an op-serializer"},
		},
	}
	base, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		t.Run(row.analyzer.Name, func(t *testing.T) {
			path := filepath.Join(base.ModRoot, filepath.FromSlash(row.file))
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(src), row.old); n != 1 {
				t.Fatalf("%s holds %q %d times, want once", row.file, row.old, n)
			}
			patched := strings.Replace(string(src), row.old, row.new, 1)
			if row.addImport != "" {
				patched = strings.Replace(patched, "\nimport (\n", "\nimport (\n\t\""+row.addImport+"\"\n", 1)
			}
			// A fresh module cache per row, sharing the standard library
			// already type-checked.
			l := *base
			l.cache, l.busy = make(map[string]*Package), make(map[string]bool)
			l.overlay = map[string]string{path: patched}
			pkgs, err := l.Load("./" + filepath.Dir(row.file))
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, d := range Analyze(&l, pkgs, []*Analyzer{row.analyzer}) {
				pos := l.Fset.Position(d.Pos)
				got = append(got, fmt.Sprintf("%s:%d: %s", filepath.Base(pos.Filename), pos.Line, d.Message))
			}
			if !slices.Equal(got, row.want) {
				t.Errorf("findings:\n\t%s\nwant:\n\t%s", strings.Join(got, "\n\t"), strings.Join(row.want, "\n\t"))
			}
		})
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
