// Command monatt-ledger is the auditor's view of the attestation evidence
// ledger (the durable trail behind the paper's Property Certification
// Module, §3.2.3). It has three modes:
//
//	monatt-ledger demo -dir DIR [-seed N]
//	    run a small simulated cloud that persists its evidence under DIR:
//	    launches, appraisals, a rootkit infection with its remediation,
//	    periodic attestation and pCA issuances all chain into the ledger,
//	    and a signed checkpoint of the head is printed.
//
//	monatt-ledger verify -dir DIR
//	    independently replay the hash chain from entry 1 to the head,
//	    recomputing every entry hash and link. This shares no state with
//	    the process that wrote the ledger: it is the auditor's proof that
//	    the evidence was not rewritten.
//
//	monatt-ledger show -dir DIR [-vid V] [-kind K] [-prop P] [-limit N]
//	    query committed entries by VM, entry kind, property, or any
//	    combination, each printed with the set fields of its record,
//	    decoded as its kind's record type. An unknown kind exits 2 and
//	    names the kinds; an entry whose record does not decode is printed
//	    with the reason and makes show exit 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"time"

	"cloudmonatt/internal/attestsrv"
	"cloudmonatt/internal/cloudsim"
	"cloudmonatt/internal/controller"
	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/ledger"
	"cloudmonatt/internal/pca"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/rpc"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "demo":
		demo(os.Args[2:])
	case "verify":
		verify(os.Args[2:])
	case "show":
		show(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: monatt-ledger {demo|verify|show} -dir DIR [options]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "monatt-ledger:", err)
	os.Exit(1)
}

func demo(args []string) {
	fs := flag.NewFlagSet("demo", flag.ExitOnError)
	dir := fs.String("dir", "", "ledger directory (required)")
	seed := fs.Int64("seed", 42, "simulation seed")
	fs.Parse(args)
	if *dir == "" {
		usage()
	}

	tb, err := cloudsim.New(cloudsim.Options{Seed: *seed, LedgerDir: *dir})
	if err != nil {
		fatal(err)
	}
	cu, err := tb.NewCustomer("auditor-demo")
	if err != nil {
		fatal(err)
	}
	req := controller.LaunchRequest{
		ImageName: "cirros", Flavor: "small", Workload: "database",
		Props:     properties.All,
		Allowlist: []string{"init", "sshd", "cron", "rsyslogd", "agetty"},
		MinShare:  0.1, Pin: -1,
	}
	healthy, err := cu.Launch(req)
	if err != nil || !healthy.OK {
		fatal(fmt.Errorf("launch: %v %s", err, healthy.Reason))
	}
	victim, err := cu.Launch(req)
	if err != nil || !victim.OK {
		fatal(fmt.Errorf("launch: %v %s", err, victim.Reason))
	}

	// Periodic monitoring on the healthy VM.
	if err := cu.StartPeriodic(healthy.Vid, properties.CPUAvailability, 5*time.Second); err != nil {
		fatal(err)
	}
	tb.RunFor(20 * time.Second)
	if _, err := cu.StopPeriodic(healthy.Vid, properties.CPUAvailability); err != nil {
		fatal(err)
	}

	// Infect the second VM: the failed appraisal triggers the Response
	// Module, and both land in the ledger.
	g, err := tb.GuestOf(victim.Vid)
	if err != nil {
		fatal(err)
	}
	g.InfectRootkit("demo-rootkit")
	if v, err := cu.Attest(victim.Vid, properties.RuntimeIntegrity); err != nil {
		fatal(err)
	} else if v.Healthy {
		fatal(fmt.Errorf("infected VM attested healthy"))
	}

	n, err := tb.Ledger.Verify()
	if err != nil {
		fatal(err)
	}
	seq, hash := tb.Ledger.Head()
	fmt.Printf("evidence ledger at %s\n", *dir)
	fmt.Printf("  entries committed: %d (chain verified)\n", n)
	fmt.Printf("  head: seq=%d hash=%x\n", seq, hash[:8])
	for _, kind := range []ledger.Kind{ledger.KindLaunch, ledger.KindAppraisal, ledger.KindRemediation, ledger.KindCertIssue} {
		es, err := tb.Ledger.Query(ledger.Filter{Kind: kind})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  %-12s %d\n", kind, len(es))
	}
	anchor := cryptoutil.MustIdentity("cloud-operator")
	cp := tb.Ledger.Checkpoint(anchor)
	if err := ledger.VerifyCheckpoint(cp, anchor.Public()); err != nil {
		fatal(err)
	}
	fmt.Printf("  signed checkpoint: seq=%d signer=%s sig=%x... (verified)\n", cp.Seq, cp.Signer, cp.Sig[:8])
	fmt.Printf("\n%s\n", tb.Ledger.Metrics().Render())
	if err := tb.Ledger.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("replay independently with: monatt-ledger verify -dir %s\n", *dir)
}

func verify(args []string) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	dir := fs.String("dir", "", "ledger directory (required)")
	fs.Parse(args)
	if *dir == "" {
		usage()
	}
	res, err := ledger.Audit(*dir)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("chain OK: %d entries replayed (seq 1..%d), head hash %x\n",
		res.Entries, res.HeadSeq, res.HeadHash)
}

func show(args []string) {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	dir := fs.String("dir", "", "ledger directory (required)")
	vid := fs.String("vid", "", "filter by VM id")
	kind := fs.String("kind", "", "filter by entry kind")
	prop := fs.String("prop", "", "filter by property")
	limit := fs.Int("limit", 0, "maximum entries to print")
	fs.Parse(args)
	if *dir == "" {
		usage()
	}
	var k ledger.Kind
	if *kind != "" {
		var err error
		if k, err = ledger.ParseKind(*kind); err != nil {
			fmt.Fprintln(os.Stderr, "monatt-ledger:", err)
			os.Exit(2)
		}
	}
	l, err := ledger.Open(ledger.Options{Dir: *dir, ReadOnly: true})
	if err != nil {
		fatal(err)
	}
	defer l.Close()
	es, err := l.Query(ledger.Filter{Vid: *vid, Kind: k, Prop: *prop, Limit: *limit})
	if err != nil {
		fatal(err)
	}
	bad := 0
	for _, e := range es {
		rec, err := decode(&e)
		desc := fields(rec)
		if err != nil {
			bad++
			desc = "undecodable: " + err.Error()
		}
		fmt.Printf("%6d  %12s  %-12s %-10s %-22s %s\n",
			e.Seq, e.At, e.Kind, e.Vid, e.Prop, desc)
	}
	fmt.Printf("%d entries\n", len(es))
	if bad > 0 {
		fatal(fmt.Errorf("%d entries do not decode as their kind's record", bad))
	}
}

// decode decodes e's record into the type its kind names; of
// KindDegraded's two types, the one its tag names.
func decode(e *ledger.Entry) (ledger.Decoder, error) {
	var rec ledger.Decoder
	switch e.Kind {
	case ledger.KindAppraisal:
		rec = new(attestsrv.AppraisalRecord)
	case ledger.KindLaunch:
		rec = new(controller.LaunchRecord)
	case ledger.KindRemediation:
		rec = new(controller.RemediationRecord)
	case ledger.KindIntent:
		rec = new(controller.IntentRecord)
	case ledger.KindDegraded:
		if e.Tag() == ledger.TagPeriodicLossRecord {
			rec = new(controller.PeriodicLossRecord)
		} else {
			rec = new(controller.StaleServeRecord)
		}
	case ledger.KindCertIssue:
		rec = new(pca.IssuanceRecord)
	case ledger.KindRPCFault:
		rec = new(rpc.FaultRecord)
	default:
		return nil, fmt.Errorf("no record type for kind %q", e.Kind)
	}
	return rec, e.Decode(rec)
}

// fields renders a decoded record's set fields as Name=value in
// declaration order, strings quoted and a nested spec as {Field:value ...}.
func fields(rec ledger.Decoder) string {
	if rec == nil {
		return ""
	}
	v := reflect.ValueOf(rec).Elem()
	var out []string
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.IsZero() {
			continue
		}
		format := "%s=%v"
		switch f.Kind() {
		case reflect.String:
			format = "%s=%q"
		case reflect.Pointer:
			f, format = f.Elem(), "%s=%+v"
		}
		out = append(out, fmt.Sprintf(format, v.Type().Field(i).Name, f.Interface()))
	}
	return strings.Join(out, " ")
}
