package oracle

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestClaimsRefindTheirBug is what keeps a correctness claim honest: each
// row puts back, in the real tree, a bug the claim rules out, and the
// tests of every package the row names must then fail, each in a test
// other than a …Golden… one (a golden that moves shows that output
// changed, not which claim broke). The substitution reaches the compiler
// through go test -overlay; the file on disk is untouched. A row nothing
// catches is a claim no test defends.
func TestClaimsRefindTheirBug(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the named packages' tests once per row; skipped in -short")
	}
	rows := []struct {
		claim    string
		file     string // module-relative
		old, new string
		pkgs     []string // module-relative packages whose tests must fail
	}{
		{
			claim: "a single-bit ledger mutation is detected",
			file:  "internal/ledger/ledger.go",
			old:   "want := entryHash(prev, e.Seq, e.At, e.Kind, e.Vid, e.Prop, e.Trace, e.Payload)",
			new:   "want := e.Hash",
			pkgs:  []string{"internal/ledger", "internal/oracle"},
		},
		{
			claim: "no pCA serial is reused after a restart",
			file:  "internal/pca/pca.go",
			old:   "p.serial = max(p.serial, high)",
			new:   "_ = high",
			pkgs:  []string{"internal/pca", "internal/cloudsim"},
		},
		{
			claim: "no remediation follows an infrastructure failure alone",
			file:  "internal/controller/attest.go",
			old:   "StaleServeRecord{int64(age), cause.Error()})\n",
			new:   "StaleServeRecord{int64(age), cause.Error()})\n\tc.Respond(vid, p, cause.Error())\n",
			pkgs:  []string{"internal/controller", "internal/cloudsim"},
		},
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		t.Run(row.claim, func(t *testing.T) {
			path := filepath.Join(root, filepath.FromSlash(row.file))
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(src), row.old); n != 1 {
				t.Fatalf("%s holds %q %d times, want once", row.file, row.old, n)
			}
			dir := t.TempDir()
			patched := filepath.Join(dir, filepath.Base(path))
			if err := os.WriteFile(patched, []byte(strings.Replace(string(src), row.old, row.new, 1)), 0o644); err != nil {
				t.Fatal(err)
			}
			overlay, err := json.Marshal(map[string]map[string]string{"Replace": {path: patched}})
			if err != nil {
				t.Fatal(err)
			}
			overlayPath := filepath.Join(dir, "overlay.json")
			if err := os.WriteFile(overlayPath, overlay, 0o644); err != nil {
				t.Fatal(err)
			}

			args := []string{"test", "-json", "-overlay", overlayPath, "-skip", "^TestClaimsRefindTheirBug$"}
			for _, p := range row.pkgs {
				args = append(args, "./"+p)
			}
			cmd := exec.Command("go", args...)
			cmd.Dir = root
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err == nil {
				t.Fatalf("every test of %v passes with the bug back", row.pkgs)
			}
			// The failed tests of each package, by its import path.
			failed := make(map[string][]string)
			sc := bufio.NewScanner(bytes.NewReader(out))
			sc.Buffer(nil, 1<<20)
			for sc.Scan() {
				var ev struct{ Action, Package, Test string }
				if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.Action == "fail" && ev.Test != "" {
					failed[ev.Package] = append(failed[ev.Package], ev.Test)
				}
			}
			for _, p := range row.pkgs {
				caught := false
				for _, name := range failed["cloudmonatt/"+p] {
					caught = caught || !strings.Contains(name, "Golden")
				}
				if !caught {
					t.Errorf("no test of %s other than a golden fails with the bug back (failed: %v; go test stderr: %s)",
						p, failed["cloudmonatt/"+p], stderr.Bytes())
				}
			}
		})
	}
}
