package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"cloudmonatt/internal/controller"
	"cloudmonatt/internal/ledger"
)

// TestMain runs the command itself when the test binary is re-executed
// with MONATT_LEDGER_RUN_MAIN set, so the tests drive the real main and
// its exit codes.
func TestMain(m *testing.M) {
	if os.Getenv("MONATT_LEDGER_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// cli runs monatt-ledger with args and returns its stdout, stderr and exit
// code.
func cli(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MONATT_LEDGER_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		return stdout.String(), stderr.String(), exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return stdout.String(), stderr.String(), 0
}

// TestVerifyExitsZeroOnADemoLedger: the ledger a demo run leaves keeps
// every claim, and verify names the checks that held.
func TestVerifyExitsZeroOnADemoLedger(t *testing.T) {
	dir := t.TempDir()
	if _, stderr, code := cli(t, "demo", "-dir", dir); code != 0 {
		t.Fatalf("demo exited %d: %s", code, stderr)
	}
	stdout, stderr, code := cli(t, "verify", "-dir", dir)
	if code != 0 {
		t.Fatalf("verify exited %d on a demo ledger: %s", code, stderr)
	}
	if !strings.HasPrefix(stdout, "OK: chain, remediation, intents and cert-serials hold") {
		t.Fatalf("verify printed %q; want the checks that held", stdout)
	}
}

// TestVerifyExitsOneOnARemediationAfterALoneDegradedServe: a chain that
// verifies but records a remediation after an infrastructure failure alone
// breaks a claim, and verify says which.
func TestVerifyExitsOneOnARemediationAfterALoneDegradedServe(t *testing.T) {
	dir := t.TempDir()
	l, err := ledger.Open(ledger.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		kind ledger.Kind
		rec  ledger.Appender
	}{
		{ledger.KindDegraded, controller.StaleServeRecord{AgeNS: 1, Cause: "partition"}},
		{ledger.KindRemediation, controller.RemediationRecord{Response: string(controller.Terminate), Terminated: true}},
	} {
		if err := ledger.Record(l, ledger.Entry{Kind: r.kind, Vid: "vm-1", Prop: "runtime-integrity"}, r.rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, stderr, code := cli(t, "verify", "-dir", dir)
	if code != 1 || !strings.Contains(stderr, "remediation: remediation 2 (termination of vm-1) follows an infrastructure failure") {
		t.Fatalf("verify exited %d, stderr %q; want 1 and the remediation violation", code, stderr)
	}
}

// TestVerifyExitsOneOnAFlippedPayloadByte: one flipped bit inside the
// first entry's payload fails verify. Offset 78 is past the 18-byte
// segment header and 60 bytes into the first frame.
func TestVerifyExitsOneOnAFlippedPayloadByte(t *testing.T) {
	dir := t.TempDir()
	if _, stderr, code := cli(t, "demo", "-dir", dir); code != 0 {
		t.Fatalf("demo exited %d: %s", code, stderr)
	}
	seg := filepath.Join(dir, "seg-0000000000000001.log")
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	b[78] ^= 1
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, code := cli(t, "verify", "-dir", dir)
	if code != 1 || !strings.Contains(stderr, "entry 1 hash mismatch") {
		t.Fatalf("verify exited %d, stderr %q; want 1 and a hash mismatch", code, stderr)
	}
}
