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
		{
			claim: "no ReconnectClient call outlasts Policy.Budget",
			file:  "internal/rpc/retry.go",
			old:   "attempt < rc.cfg.Policy.MaxAttempts;",
			new:   "attempt <= rc.cfg.Policy.MaxAttempts;",
			pkgs:  []string{"internal/rpc"},
		},
		{
			// Caught by TestEachCallFormRetriesAReset/CallIdem.
			claim: "a retried CallIdem executes its method once",
			file:  "internal/rpc/retry.go",
			old:   "err = rc.attempt(ctx, asp.Context(), method, idemKey, req, resp)",
			new:   `err = rc.attempt(ctx, asp.Context(), method, map[bool]string{true: newIdemKey()}[idemKey != ""], req, resp)`,
			pkgs:  []string{"internal/rpc"},
		},
		{
			// Caught by TestCallFreshRetriesThroughChaos and
			// TestEachCallFormRetriesAReset/CallFresh.
			claim: "CallFresh rebuilds its request on every attempt",
			file:  "internal/rpc/retry.go",
			old:   `return rc.do(ctx, method, "", makeReq, resp)`,
			new:   "req, err := makeReq()\n\treturn rc.do(ctx, method, \"\", func() (any, error) { return req, err }, resp)",
			pkgs:  []string{"internal/rpc"},
		},
		{
			// Caught by TestAttestationAllocBudget: the errors.As target
			// declared before the success return moves to the heap on
			// every call, three more allocations per attestation.
			claim: "a successful ReconnectClient call allocates nothing for its error path",
			file:  "internal/rpc/retry.go",
			old:   "\terr = c.call(ctx, sc, deadline, method, idemKey, req, resp)\n\tif err == nil {\n\t\treturn nil\n\t}\n\t// Declared past the success return: errors.As moves rerr to the heap.\n\tvar rerr *RemoteError\n",
			new:   "\tvar rerr *RemoteError\n\terr = c.call(ctx, sc, deadline, method, idemKey, req, resp)\n\tif err == nil {\n\t\treturn nil\n\t}\n",
			pkgs:  []string{"internal/cloudsim"},
		},
		{
			// Caught by TestReconnectClientBoundsItself (its stalled peer)
			// and TestMemConnContract.
			claim: "an interrupt reaches an exchange blocked on the in-memory wire",
			file:  "internal/rpc/memconn.go",
			old:   "c.arm()\n\tc.wake()\n\treturn nil",
			new:   "c.arm()\n\treturn nil",
			pkgs:  []string{"internal/rpc"},
		},
		{
			// Caught by TestReconnectClientBoundsItself (a leaked serving
			// goroutine), TestPartitionedCallsReturnWithinDeadline and
			// TestMemConnContract.
			claim: "closing one end ends the peer's blocked read",
			file:  "internal/rpc/memconn.go",
			old:   "\t\tc.timer.Stop()\n\t}\n\tc.wake()\n",
			new:   "\t\tc.timer.Stop()\n\t}\n",
			pkgs:  []string{"internal/rpc"},
		},
		{
			// Caught by TestResumeSurvivesALostReply: the retried resume
			// runs again and the host refuses a VM that is not suspended.
			claim: "a retried resume is answered, not run again",
			file:  "internal/controller/attest.go",
			old:   "err = mgmt.CallIdem(context.Background(), server.MethodResume,",
			new:   "err = mgmt.CallCtx(context.Background(), server.MethodResume,",
			pkgs:  []string{"internal/controller"},
		},
		{
			// Caught by TestWrongShardChangesNothing.
			claim: "a shard refuses a VM-addressed call for a VM it does not own",
			file:  "internal/attestsrv/serve.go",
			old:   "if err := s.checkOwner(rec.Vid); err != nil {",
			new:   "if err := error(nil); err != nil {",
			pkgs:  []string{"internal/attestsrv"},
		},
		{
			// Caught by TestHandlerScopesToThePeer.
			claim: "a customer reads the status of its own VMs only",
			file:  "internal/controller/serve.go",
			old:   "if st.Owner != peer.Name {",
			new:   "if false {",
			pkgs:  []string{"internal/controller"},
		},
		{
			claim: "a breaker opens at its threshold",
			file:  "internal/rpc/breaker.go",
			old:   "b.failures < b.threshold",
			new:   "b.failures <= b.threshold",
			pkgs:  []string{"internal/rpc"},
		},
		{
			claim: "recovery replays only a chain that verifies",
			file:  "internal/controller/replay.go",
			old:   `return fmt.Errorf("controller: ledger replay: %w", err)`,
			new:   "_ = err",
			pkgs:  []string{"internal/cloudsim"},
		},
		{
			claim: "recovery reserves nothing for a finalized VM",
			file:  "internal/controller/replay.go",
			old:   "if !rec.Finalized && !rec.MigratedOut {",
			new:   "if !rec.MigratedOut {",
			pkgs:  []string{"internal/controller", "internal/cloudsim"},
		},
		{
			claim: "recovery reserves nothing for a half-migrated VM",
			file:  "internal/controller/replay.go",
			old:   "if !rec.Finalized && !rec.MigratedOut {",
			new:   "if !rec.Finalized {",
			pkgs:  []string{"internal/cloudsim"},
		},
		{
			claim: "a summary's reservoir keeps the whole stream",
			file:  "internal/metrics/metrics.go",
			old:   "if j := s.rng.Int63n(int64(s.count)); j < maxSamples {",
			new:   "if j := int64(s.count) % maxSamples; j >= 0 {",
			pkgs:  []string{"internal/metrics"},
		},
		{
			// Caught by TestResumeWrongRMSRefused.
			claim: "a resumption without the ticket's secret is refused",
			file:  "internal/secchan/resume.go",
			old:   "if !cryptoutil.ConstEqual(rc.Binder[:], binder[:]) {",
			new:   "if !cryptoutil.ConstEqual(binder[:], binder[:]) {",
			pkgs:  []string{"internal/secchan"},
		},
		{
			// Caught by TestResumeTamperedConfirmFailsClient.
			claim: "a client resumes only with a server that proves the ticket's secret",
			file:  "internal/secchan/resume.go",
			old:   "if !cryptoutil.ConstEqual(rs.Confirm[:], confirm[:]) {",
			new:   "if !cryptoutil.ConstEqual(confirm[:], confirm[:]) {",
			pkgs:  []string{"internal/secchan"},
		},
		{
			// Caught by TestResumeTicketSingleUse.
			claim: "a resumption ticket is redeemed once",
			file:  "internal/secchan/resume.go",
			old:   "if !cfg.Tickets.consume(rc.ID) {",
			new:   "if cfg.Tickets.consume(rc.ID); false {",
			pkgs:  []string{"internal/secchan"},
		},
		{
			// Caught by TestResumeExpiredTicket.
			claim: "an expired resumption ticket is refused",
			file:  "internal/secchan/resume.go",
			old:   "if k.now().After(expiry) {",
			new:   "if k.now().After(expiry.Add(1 << 62)) {",
			pkgs:  []string{"internal/secchan"},
		},
		{
			// Caught by TestResumeRevokedPeer.
			claim: "revoking a peer revokes its resumption tickets",
			file:  "internal/secchan/resume.go",
			old:   "if err := cfg.Verify(name, clientKey); err != nil {",
			new:   "if err := cfg.Verify(name, clientKey); err != nil && name == \"\" {",
			pkgs:  []string{"internal/secchan"},
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
