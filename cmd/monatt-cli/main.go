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
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"cloudmonatt/internal/controller"
	"cloudmonatt/internal/customer"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/rpc"
)

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
	cfg, err := customer.ReadBootstrap(*bootstrapPath)
	if err != nil {
		log.Fatal(err)
	}
	cfg.RPC = rpc.Policy{CallTimeout: *timeout, MaxAttempts: *retries}
	cu, err := customer.Connect(cfg)
	if err != nil {
		log.Fatalf("dialing controller: %v", err)
	}
	defer cu.Close()

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
		res, err := cu.Launch(controller.LaunchRequest{
			ImageName: *img, Flavor: *flavor, Workload: *work, Server: *server,
			Props: ps, Allowlist: splitList(*allow), MinShare: *minShare, Pin: -1,
		})
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
		// An unverifiable report comes back as an error, never as a verdict.
		rep, err := cu.AttestReport(*vid, p)
		if err != nil {
			log.Fatal(err)
		}
		if rep.Stale {
			fmt.Printf("WARNING: attestation infrastructure unavailable; last-known-good verdict, %s old\n",
				rep.Age.Round(time.Millisecond))
		}
		fmt.Printf("%s  trace=%s\n", rep.Verdict.String(), customer.TraceOf(rep))
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
		if err := cu.StartPeriodic(*vid, p, *freq); err != nil {
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
		drain := cu.FetchPeriodic
		if cmd == "stop" {
			drain = cu.StopPeriodic
		}
		verdicts, err := drain(*vid, p)
		if err != nil {
			log.Fatal(err)
		}
		for _, v := range verdicts {
			fmt.Println(v.String())
		}
		if cmd == "stop" {
			fmt.Println("periodic attestation stopped")
		} else if len(verdicts) == 0 {
			fmt.Println("no fresh results yet")
		}

	case "terminate":
		fs := flag.NewFlagSet("terminate", flag.ExitOnError)
		vid := fs.String("vid", "", "VM id")
		fs.Parse(args)
		if err := cu.Terminate(*vid); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s terminated\n", *vid)

	case "list":
		vms, err := cu.ListVMs()
		if err != nil {
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
		events, err := cu.Events()
		if err != nil {
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
		st, err := cu.Status(*vid)
		if err != nil {
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
