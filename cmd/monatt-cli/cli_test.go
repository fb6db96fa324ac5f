package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestCLIBinaryEndToEnd builds the real monatt-cloud and monatt-cli
// binaries, runs the cloud daemon over loopback TCP, and drives the full
// customer flow from the CLI process: launch, list, attest all four
// properties (each printing the trace ID the operator surface files the
// request under), and terminate.
func TestCLIBinaryEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("binary end-to-end test skipped in -short mode")
	}
	dir := t.TempDir()
	build := func(name, pkg string) string {
		bin := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		cmd.Dir = mustModuleRoot(t)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
		return bin
	}
	cloudBin := build("monatt-cloud", "./cmd/monatt-cloud")
	cliBin := build("monatt-cli", "./cmd/monatt-cli")

	// Reserve a loopback port for the operator surface.
	pl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	admin := pl.Addr().String()
	pl.Close()

	bootstrap := filepath.Join(dir, "bootstrap.json")
	cloud := exec.Command(cloudBin, "-servers", "2", "-bootstrap", bootstrap, "-pump", "50ms", "-admin-addr", admin)
	var cloudOut bytes.Buffer
	cloud.Stdout = &cloudOut
	cloud.Stderr = &cloudOut
	if err := cloud.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cloud.Process.Kill()
		cloud.Wait()
	}()

	// Wait for the bootstrap file.
	deadline := time.Now().Add(15 * time.Second)
	for {
		if _, err := os.Stat(bootstrap); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cloud never wrote the bootstrap file; output:\n%s", cloudOut.String())
		}
		time.Sleep(50 * time.Millisecond)
	}

	cli := func(args ...string) string {
		cmd := exec.Command(cliBin, append([]string{"-bootstrap", bootstrap}, args...)...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("cli %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	launchOut := cli("launch", "-image", "cirros", "-flavor", "small", "-workload", "database")
	m := regexp.MustCompile(`launched (vm-\d+)`).FindStringSubmatch(launchOut)
	if m == nil {
		t.Fatalf("launch output: %s", launchOut)
	}
	vid := m[1]
	if !strings.Contains(launchOut, "attestation") {
		t.Fatalf("launch output missing stage breakdown: %s", launchOut)
	}

	listOut := cli("list")
	if !strings.Contains(listOut, vid) || !strings.Contains(listOut, "active") {
		t.Fatalf("list output: %s", listOut)
	}

	for _, prop := range []string{
		"startup-integrity", "runtime-integrity", "covert-channel-freedom", "cpu-availability",
	} {
		out := cli("attest", "-vid", vid, "-prop", prop)
		if !strings.Contains(out, "HEALTHY") {
			t.Fatalf("attest %s: %s", prop, out)
		}
		// The trace ID is minted by the customer from N1, so the one the
		// CLI prints is the one the daemon filed the request's spans under.
		tm := regexp.MustCompile(`trace=([0-9a-f]{16})`).FindStringSubmatch(out)
		if tm == nil {
			t.Fatalf("attest %s printed no trace ID: %s", prop, out)
		}
		resp, err := http.Get("http://" + admin + "/traces?vm=" + vid)
		if err != nil {
			t.Fatal(err)
		}
		traces, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || !strings.Contains(string(traces), tm[1]) {
			t.Fatalf("trace %s (attest %s) not under /traces?vm=%s (err %v):\n%s", tm[1], prop, vid, err, traces)
		}
	}

	if out := cli("events"); !strings.Contains(out, "no remediation") {
		t.Fatalf("events output: %s", out)
	}

	statusOut := cli("vm", "status", "-vid", vid)
	for _, want := range []string{vid, "state=active", "Placed", "Attested", "Healthy"} {
		if !strings.Contains(statusOut, want) {
			t.Fatalf("vm status output missing %q:\n%s", want, statusOut)
		}
	}

	if out := cli("terminate", "-vid", vid); !strings.Contains(out, "terminated") {
		t.Fatalf("terminate output: %s", out)
	}
	if out := cli("list"); !strings.Contains(out, "no VMs") {
		t.Fatalf("list after terminate: %s", out)
	}
	if out := cli("vm", "status", "-vid", vid); !strings.Contains(out, "state=terminated") {
		t.Fatalf("vm status after terminate: %s", out)
	}
}

// mustModuleRoot locates the module root (where go.mod lives).
func mustModuleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above working directory")
		}
		dir = parent
	}
}
