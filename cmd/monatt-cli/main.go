// Command monatt-cli is the cloud customer: it connects to a running
// monatt-cloud over TCP with its enrolled identity and drives the nova api,
// including the four attestation commands of Table 1. Every attestation
// report is end-verified (controller signature, nonce N1, quote Q1) before
// it is displayed — the CLI is the paper's "end-verifier".
//
// Usage:
//
//	monatt-cli [-bootstrap monatt-bootstrap.json] <command> [flags]
//
// Commands:
//
//	launch    -image ubuntu -flavor small -workload database \
//	          -props startup-integrity,runtime-integrity -allowlist init,sshd
//	attest    -vid vm-0001 -prop cpu-availability
//	periodic  -vid vm-0001 -prop cpu-availability -freq 5s
//	fetch     -vid vm-0001 -prop cpu-availability
//	stop      -vid vm-0001 -prop cpu-availability
//	terminate -vid vm-0001
//	list                 (this customer's VMs)
//	events               (remediation responses executed on them)
//	vm status -vid vm-0001   (reconcile view: lifecycle, placement, conditions)
package main

import (
	"context"
	"crypto/ed25519"
	"encoding/base64"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"cloudmonatt/internal/controller"
	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/rpc"
	"cloudmonatt/internal/secchan"
	"cloudmonatt/internal/wire"
)

type bootstrap struct {
	ControllerAddr   string `json:"controller_addr"`
	ControllerKey    string `json:"controller_key"`
	CustomerName     string `json:"customer_name"`
	CustomerSeedPath string `json:"customer_seed_path"` // raw Ed25519 seed file
}

type cli struct {
	client   *rpc.ReconnectClient
	ctrlKey  ed25519.PublicKey
	opBudget time.Duration
}

// opCtx bounds one CLI operation end to end (every retry attempt plus
// backoff), so a dead controller yields an error instead of a hung prompt.
func (c *cli) opCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), c.opBudget)
}

func connect(path string, timeout time.Duration, retries int) (*cli, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading bootstrap (is monatt-cloud running?): %w", err)
	}
	var bs bootstrap
	if err := json.Unmarshal(data, &bs); err != nil {
		return nil, err
	}
	ctrlKey, err := base64.StdEncoding.DecodeString(bs.ControllerKey)
	if err != nil {
		return nil, err
	}
	// The seed is provisioned out of band from the public bootstrap JSON:
	// a raw 0600 file monatt-cloud wrote through WriteSecretFile.
	seed, err := os.ReadFile(bs.CustomerSeedPath)
	if err != nil {
		return nil, fmt.Errorf("reading customer seed: %w", err)
	}
	id, err := cryptoutil.IdentityFromSeed(bs.CustomerName, seed)
	if err != nil {
		return nil, err
	}
	verify := func(name string, key ed25519.PublicKey) error {
		if name != "cloud-controller" || !cryptoutil.KeyEqual(key, ctrlKey) {
			return errors.New("controller identity mismatch")
		}
		return nil
	}
	client := rpc.NewReconnectClient(rpc.ClientConfig{
		Network:     rpc.TCPNetwork{},
		Addr:        bs.ControllerAddr,
		Peer:        "cloud-controller",
		Secchan:     secchan.Config{Identity: id, Verify: verify},
		Retry:       rpc.RetryPolicy{MaxAttempts: retries},
		CallTimeout: timeout,
		// Read-only queries are safe to blindly re-issue; mutations go
		// through idempotency keys or fresh nonces below.
		Idempotent: func(method string) bool {
			return method == controller.MethodListVMs || method == controller.MethodListEvents ||
				method == controller.MethodVMStatus
		},
	})
	c := &cli{client: client, ctrlKey: ctrlKey,
		opBudget: rpc.OpBudget(timeout, rpc.RetryPolicy{MaxAttempts: retries})}
	ctx, cancel := c.opCtx()
	defer cancel()
	if err := client.Connect(ctx); err != nil {
		client.Close()
		return nil, fmt.Errorf("dialing controller: %w", err)
	}
	return c, nil
}

func parseProp(s string) (properties.Property, error) {
	p := properties.Property(s)
	if !properties.Valid(p) {
		return "", fmt.Errorf("unknown property %q (valid: %v)", s, properties.All)
	}
	return p, nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

func main() {
	log.SetFlags(0)
	bootstrapPath := flag.String("bootstrap", "monatt-bootstrap.json", "bootstrap file from monatt-cloud")
	timeout := flag.Duration("timeout", 30*time.Second, "per-attempt RPC timeout")
	retries := flag.Int("retries", 4, "max attempts per retryable RPC")
	flag.Parse()
	if flag.NArg() < 1 {
		log.Fatal("usage: monatt-cli [-bootstrap FILE] [-timeout 30s] [-retries 4] <launch|attest|periodic|fetch|stop|terminate> [flags]")
	}
	c, err := connect(*bootstrapPath, *timeout, *retries)
	if err != nil {
		log.Fatal(err)
	}
	defer c.client.Close()

	cmd, args := flag.Arg(0), flag.Args()[1:]
	switch cmd {
	case "launch":
		fs := flag.NewFlagSet("launch", flag.ExitOnError)
		img := fs.String("image", "ubuntu", "VM image (cirros, fedora, ubuntu)")
		flavor := fs.String("flavor", "small", "flavor (small, medium, large)")
		work := fs.String("workload", "database", "workload name")
		props := fs.String("props", "startup-integrity,runtime-integrity,covert-channel-freedom,cpu-availability", "requested security properties")
		allow := fs.String("allowlist", "init,sshd,cron,rsyslogd,agetty", "task allowlist for runtime integrity")
		minShare := fs.Float64("minshare", 0.25, "SLA CPU-share floor")
		server := fs.String("server", "", "explicit placement on a named cloud server (bypasses the property filter; capacity still enforced)")
		fs.Parse(args)
		var ps []properties.Property
		for _, s := range splitList(*props) {
			p, err := parseProp(s)
			if err != nil {
				log.Fatal(err)
			}
			ps = append(ps, p)
		}
		var res controller.LaunchResult
		ctx, cancel := c.opCtx()
		defer cancel()
		err := c.client.CallIdem(ctx, controller.MethodLaunchVM, rpc.NewIdemKey(), controller.LaunchRequest{
			ImageName: *img, Flavor: *flavor, Workload: *work, Server: *server,
			Props: ps, Allowlist: splitList(*allow), MinShare: *minShare, Pin: -1,
		}, &res)
		if err != nil {
			log.Fatal(err)
		}
		if !res.OK {
			log.Fatalf("launch rejected: %s", res.Reason)
		}
		fmt.Printf("launched %s (startup attestation: %s)\n", res.Vid, res.Verdict.Reason)
		for _, st := range res.Stages {
			fmt.Printf("  %-22s %6.2fs\n", st.Stage, st.Duration.Seconds())
		}

	case "attest":
		fs := flag.NewFlagSet("attest", flag.ExitOnError)
		vid := fs.String("vid", "", "VM id")
		prop := fs.String("prop", string(properties.RuntimeIntegrity), "property to attest")
		fs.Parse(args)
		p, err := parseProp(*prop)
		if err != nil {
			log.Fatal(err)
		}
		method := controller.MethodRuntimeAttestCurrent
		if p == properties.StartupIntegrity {
			method = controller.MethodStartupAttestCurrent
		}
		// N1 is regenerated per retry attempt so the controller's replay
		// cache never rejects a re-issued request.
		var n1 cryptoutil.Nonce
		var rep wire.CustomerReport
		ctx, cancel := c.opCtx()
		defer cancel()
		if err := c.client.CallFresh(ctx, method, func(int) (any, error) {
			n1 = cryptoutil.MustNonce()
			return wire.AttestRequest{Vid: *vid, Prop: p, N1: n1}, nil
		}, &rep); err != nil {
			log.Fatal(err)
		}
		if err := wire.VerifyCustomerReport(&rep, c.ctrlKey, *vid, p, n1); err != nil {
			log.Fatalf("REJECTING report: %v", err)
		}
		if rep.Stale {
			fmt.Printf("WARNING: attestation infrastructure unavailable; last-known-good verdict, %s old\n",
				rep.Age.Round(time.Millisecond))
		}
		fmt.Println(rep.Verdict.String())
		for k, v := range rep.Verdict.Details {
			fmt.Printf("  %s: %s\n", k, v)
		}

	case "periodic":
		fs := flag.NewFlagSet("periodic", flag.ExitOnError)
		vid := fs.String("vid", "", "VM id")
		prop := fs.String("prop", string(properties.CPUAvailability), "property")
		freq := fs.Duration("freq", 5*time.Second, "attestation frequency")
		fs.Parse(args)
		p, err := parseProp(*prop)
		if err != nil {
			log.Fatal(err)
		}
		ctx, cancel := c.opCtx()
		defer cancel()
		if err := c.client.CallIdem(ctx, controller.MethodRuntimeAttestPeriodic, rpc.NewIdemKey(), wire.PeriodicRequest{
			Vid: *vid, Prop: p, Freq: *freq, N1: cryptoutil.MustNonce(),
		}, nil); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("periodic attestation of %s armed at %v; use `fetch` for fresh results\n", p, *freq)

	case "fetch", "stop":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		vid := fs.String("vid", "", "VM id")
		prop := fs.String("prop", string(properties.CPUAvailability), "property")
		fs.Parse(args)
		p, err := parseProp(*prop)
		if err != nil {
			log.Fatal(err)
		}
		method := controller.MethodFetchPeriodic
		if cmd == "stop" {
			method = controller.MethodStopAttestPeriodic
		}
		n1 := cryptoutil.MustNonce()
		var reps []*wire.CustomerReport
		// Drains are idempotency-keyed: a retried drain replays the recorded
		// batch instead of losing it.
		ctx, cancel := c.opCtx()
		defer cancel()
		if err := c.client.CallIdem(ctx, method, rpc.NewIdemKey(),
			wire.StopPeriodicRequest{Vid: *vid, Prop: p, N1: n1}, &reps); err != nil {
			log.Fatal(err)
		}
		for _, rep := range reps {
			if err := wire.VerifyCustomerReport(rep, c.ctrlKey, *vid, p, n1); err != nil {
				log.Fatalf("REJECTING report: %v", err)
			}
			fmt.Println(rep.Verdict.String())
		}
		if cmd == "stop" {
			fmt.Println("periodic attestation stopped")
		} else if len(reps) == 0 {
			fmt.Println("no fresh results yet")
		}

	case "terminate":
		fs := flag.NewFlagSet("terminate", flag.ExitOnError)
		vid := fs.String("vid", "", "VM id")
		fs.Parse(args)
		ctx, cancel := c.opCtx()
		defer cancel()
		if err := c.client.CallIdem(ctx, controller.MethodTerminateVM, rpc.NewIdemKey(),
			struct{ Vid string }{*vid}, nil); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s terminated\n", *vid)

	case "list":
		var vms []controller.VMSummary
		ctx, cancel := c.opCtx()
		defer cancel()
		if err := c.client.CallCtx(ctx, controller.MethodListVMs, struct{}{}, &vms); err != nil {
			log.Fatal(err)
		}
		if len(vms) == 0 {
			fmt.Println("no VMs")
			return
		}
		fmt.Printf("%-10s %-8s %-8s %-14s %-10s %s\n", "VID", "IMAGE", "FLAVOR", "WORKLOAD", "STATE", "PROPERTIES")
		for _, vm := range vms {
			props := make([]string, len(vm.Props))
			for i, p := range vm.Props {
				props[i] = string(p)
			}
			fmt.Printf("%-10s %-8s %-8s %-14s %-10s %s\n",
				vm.Vid, vm.ImageName, vm.Flavor, vm.Workload, vm.State, strings.Join(props, ","))
		}

	case "events":
		var events []controller.ResponseEvent
		ctx, cancel := c.opCtx()
		defer cancel()
		if err := c.client.CallCtx(ctx, controller.MethodListEvents, struct{}{}, &events); err != nil {
			log.Fatal(err)
		}
		if len(events) == 0 {
			fmt.Println("no remediation responses executed")
			return
		}
		for _, ev := range events {
			fmt.Printf("t=%-8s %-11s %-8s prop=%-24s %.1fs  %s\n",
				ev.At.Round(time.Millisecond), ev.Response, ev.Vid, ev.Prop, ev.Duration.Seconds(), ev.Reason)
		}

	case "vm", "status":
		// "vm status" is the documented spelling; bare "status" works too.
		if cmd == "vm" {
			if len(args) < 1 || args[0] != "status" {
				log.Fatal("usage: monatt-cli vm status -vid vm-0001")
			}
			args = args[1:]
		}
		fs := flag.NewFlagSet("status", flag.ExitOnError)
		vid := fs.String("vid", "", "VM id")
		fs.Parse(args)
		var st wire.VMStatus
		ctx, cancel := c.opCtx()
		defer cancel()
		if err := c.client.CallCtx(ctx, controller.MethodVMStatus, struct{ Vid string }{*vid}, &st); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s  owner=%s  server=%s  state=%s", st.Vid, st.Owner, st.Server, st.State)
		if st.Deleted {
			fmt.Printf("  deleted  finalized=%v", st.Finalized)
		}
		fmt.Println()
		if len(st.Conditions) == 0 {
			fmt.Println("no conditions recorded")
			return
		}
		fmt.Printf("%-14s %-8s %-16s %s\n", "CONDITION", "STATUS", "REASON", "MESSAGE")
		for _, cond := range st.Conditions {
			fmt.Printf("%-14s %-8s %-16s %s\n", cond.Type, cond.Status, cond.Reason, cond.Message)
		}

	default:
		log.Fatalf("unknown command %q", cmd)
	}
}
