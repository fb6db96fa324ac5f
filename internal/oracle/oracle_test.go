package oracle

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cloudmonatt/internal/attestsrv"
	"cloudmonatt/internal/controller"
	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/image"
	"cloudmonatt/internal/ledger"
	"cloudmonatt/internal/metrics"
	"cloudmonatt/internal/pca"
	"cloudmonatt/internal/rpc"
	"cloudmonatt/internal/server"
)

// entry is one hand-built ledger entry, its payload the writer's record.
type entry struct {
	kind      ledger.Kind
	vid, prop string
	payload   any
}

var (
	unhealthy    = entry{ledger.KindAppraisal, "vm-1", "runtime-integrity", attestsrv.AppraisalRecord{Server: "s", Reason: "rootkit"}}
	healthy      = entry{ledger.KindAppraisal, "vm-1", "runtime-integrity", attestsrv.AppraisalRecord{Server: "s", Healthy: true}}
	unattestable = entry{ledger.KindAppraisal, "vm-1", "runtime-integrity", attestsrv.AppraisalRecord{Server: "s", Unattestable: true}}
	degraded     = entry{ledger.KindDegraded, "vm-1", "runtime-integrity", controller.StaleServeRecord{AgeNS: 1, Cause: "partition"}}
	terminated   = entry{ledger.KindRemediation, "vm-1", "runtime-integrity", controller.RemediationRecord{Response: string(controller.Terminate), Terminated: true}}
	resumed      = entry{ledger.KindRemediation, "vm-1", "", controller.RemediationRecord{Response: "resume"}}
	recovered    = entry{ledger.KindIntent, "", "", controller.IntentRecord{Phase: "end", Op: "recover", ID: "in-9"}}
)

func begin(id string) entry {
	return entry{ledger.KindIntent, "vm-1", "", controller.IntentRecord{Phase: "begin", Op: "launch", ID: id}}
}

func end(id string) entry {
	return entry{ledger.KindIntent, "vm-1", "", controller.IntentRecord{Phase: "end", Op: "launch", ID: id, OK: true}}
}

func serial(n uint64) entry {
	return entry{ledger.KindCertIssue, "", "", pca.IssuanceRecord{Subject: fmt.Sprintf("anon-%d", n), Serial: n}}
}

// counters is a shard's metrics snapshot holding the given counters.
func counters(kv map[string]int64) metrics.RegistrySnapshot {
	var s metrics.RegistrySnapshot
	for k, v := range kv {
		s.Counters = append(s.Counters, metrics.NamedCounter{Name: k, Value: v})
	}
	return s
}

var signer = cryptoutil.MustIdentity("operator")

// run appends entries to a ledger in dir (in memory when empty) and
// returns the finished run, its head checkpointed by signer.
func run(t *testing.T, dir string, es ...entry) Run {
	t.Helper()
	l, err := ledger.Open(ledger.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	for _, e := range es {
		if err := l.Record(ledger.Entry{Kind: e.kind, Vid: e.vid, Prop: e.prop}, e.payload); err != nil {
			t.Fatal(err)
		}
	}
	return Run{
		Ledger:        l,
		Checkpoint:    l.Checkpoint(signer),
		CheckpointKey: signer.Public(),
		Shards: map[string]metrics.RegistrySnapshot{"shard-a": counters(map[string]int64{
			"periodic/ticks": 7, "periodic/produced": 4, "periodic/skipped": 1,
			"periodic/failures": 1, "periodic/stopped-discards": 1,
		})},
	}
}

// TestCleanRunHasNoViolations: a run that keeps every claim — a remediation
// per unhealthy verdict however many infrastructure failures came between,
// a torn intent replayed by recovery, increasing serials — passes.
func TestCleanRunHasNoViolations(t *testing.T) {
	r := run(t, "", serial(1), begin("in-1"), end("in-1"), begin("in-2"), recovered,
		healthy, unattestable, unhealthy, degraded, terminated, resumed,
		degraded, unhealthy, terminated, serial(2))
	if vs := Check(r); len(vs) != 0 {
		t.Fatalf("violations on a clean run: %v", vs)
	}
}

// TestEachCheckFindsItsViolation builds, for each check, a run that breaks
// only that check's claim, and requires exactly that check to object.
func TestEachCheckFindsItsViolation(t *testing.T) {
	cases := []struct {
		name   string
		check  string
		detail string // a substring of the violation
		build  func(t *testing.T) Run
	}{
		{"mutated-entry", CheckChain, "hash mismatch", func(t *testing.T) Run {
			dir := t.TempDir()
			r := run(t, dir, healthy, healthy)
			segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
			if err != nil || len(segs) != 1 {
				t.Fatalf("segments %v, %v", segs, err)
			}
			f, err := os.OpenFile(segs[0], os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			var b [1]byte
			if _, err := f.ReadAt(b[:], 40); err != nil {
				t.Fatal(err)
			}
			b[0] ^= 1 // inside the first entry's fields
			if _, err := f.WriteAt(b[:], 40); err != nil {
				t.Fatal(err)
			}
			return r
		}},
		{"stale-checkpoint", CheckChain, "not the head", func(t *testing.T) Run {
			r := run(t, "", healthy)
			r.Checkpoint = r.Ledger.Checkpoint(signer)
			if _, err := r.Ledger.Append(ledger.Entry{Kind: ledger.KindLaunch, Vid: "vm-2"}); err != nil {
				t.Fatal(err)
			}
			return r
		}},
		{"forged-checkpoint", CheckChain, "signature invalid", func(t *testing.T) Run {
			r := run(t, "", healthy)
			r.Checkpoint = r.Ledger.Checkpoint(cryptoutil.MustIdentity("mallory"))
			return r
		}},
		{"tick-unresolved", CheckPeriodic, "popped 3 ticks but resolved 2", func(t *testing.T) Run {
			r := run(t, "", healthy)
			r.Shards["shard-b"] = counters(map[string]int64{"periodic/ticks": 3, "periodic/produced": 1, "periodic/skipped": 1})
			return r
		}},
		{"remediated-twice", CheckRemediation, "answers no unhealthy verdict", func(t *testing.T) Run {
			return run(t, "", unhealthy, terminated, terminated)
		}},
		{"remediated-healthy", CheckRemediation, "answers no unhealthy verdict", func(t *testing.T) Run {
			return run(t, "", healthy, unattestable, terminated)
		}},
		{"remediated-infra-failure", CheckRemediation, "follows an infrastructure failure", func(t *testing.T) Run {
			return run(t, "", unhealthy, terminated, degraded, terminated)
		}},
		{"intent-torn", CheckIntents, "begun at 3", func(t *testing.T) Run {
			return run(t, "", begin("in-1"), recovered, begin("in-2"), end("in-1"))
		}},
		{"serial-reused", CheckSerials, "serial 2 after serial 2", func(t *testing.T) Run {
			return run(t, "", serial(1), serial(2), serial(2))
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			vs := Check(c.build(t))
			if len(vs) == 0 {
				t.Fatalf("no violation; want one from %s", c.check)
			}
			for _, v := range vs {
				if v.Check != c.check || !strings.Contains(v.Detail, c.detail) {
					t.Fatalf("violations %v; want only %s ones mentioning %q", vs, c.check, c.detail)
				}
			}
		})
	}
}

// TestRecordEncodingsUnchanged pins every ledger record type's encoding to
// a literal (one row per type, and for a type with omitempty fields a row
// with all of them set and one with none), and checks that each decodes
// back to itself. Ledgers already on disk hold these bytes and chain
// hashes over them, so a renamed tag or reordered field fails here. This
// package imports every record type's package.
func TestRecordEncodingsUnchanged(t *testing.T) {
	spec := &server.LaunchSpec{Vid: "vm-0001", ImageName: "cirros", ImageDigest: [32]byte{7},
		Flavor: image.Flavor{Name: "small", VCPUs: 1, MemoryMB: 2048, DiskGB: 20}, Workload: "idle", Pin: 1}
	rows := []struct {
		name string
		kind ledger.Kind
		rec  any // a value of the record type
		want string
	}{
		{"appraisal/all", ledger.KindAppraisal,
			attestsrv.AppraisalRecord{Server: "cloud-server-3", Backend: "sev-snp", Unattestable: true, Class: "platform", Reason: "not attestable"},
			`{"server":"cloud-server-3","backend":"sev-snp","healthy":false,"unattestable":true,"class":"platform","reason":"not attestable"}`},
		{"appraisal/none", ledger.KindAppraisal, attestsrv.AppraisalRecord{Server: "cloud-server-1", Healthy: true},
			`{"server":"cloud-server-1","healthy":true}`},
		{"launch/all", ledger.KindLaunch,
			controller.LaunchRecord{OK: true, Owner: "alice", Server: "cloud-server-1", Backend: "tpm", Reason: "placed"},
			`{"ok":true,"owner":"alice","server":"cloud-server-1","backend":"tpm","reason":"placed"}`},
		{"launch/none", ledger.KindLaunch, controller.LaunchRecord{Owner: "alice"}, `{"ok":false,"owner":"alice"}`},
		{"remediation/all", ledger.KindRemediation,
			controller.RemediationRecord{Response: "migration", Reason: "bimodal histogram", Backend: "vtpm", NewServer: "cloud-server-2", Terminated: true, Intent: "in-000007"},
			`{"response":"migration","reason":"bimodal histogram","backend":"vtpm","new_server":"cloud-server-2","terminated":true,"intent":"in-000007"}`},
		{"remediation/none (resume)", ledger.KindRemediation, controller.RemediationRecord{Response: "resume"}, `{"response":"resume"}`},
		{"intent/all", ledger.KindIntent, controller.IntentRecord{
			Phase: "end", Op: "launch", ID: "in-000001", OK: true,
			Owner: "alice", Image: "cirros", Flavor: "small", Workload: "idle",
			Props: []string{"runtime-integrity"}, Allowlist: []string{"init"},
			MinShare: 0.25, Pin: -1, ReqServer: "cloud-server-1", Server: "cloud-server-2",
			Response: "termination", Reason: "rootkit", NewServer: "cloud-server-3", Terminated: true,
			State: "suspended", Spec: spec,
		}, `{"phase":"end","op":"launch","id":"in-000001","ok":true,"owner":"alice","image":"cirros","flavor":"small",` +
			`"workload":"idle","props":["runtime-integrity"],"allowlist":["init"],"min_share":0.25,"pin":-1,` +
			`"req_server":"cloud-server-1","server":"cloud-server-2","response":"termination","reason":"rootkit",` +
			`"new_server":"cloud-server-3","terminated":true,"state":"suspended","spec":{"Vid":"vm-0001","ImageName":"cirros",` +
			`"ImageDigest":[7,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],` +
			`"Flavor":{"Name":"small","VCPUs":1,"MemoryMB":2048,"DiskGB":20},"Workload":"idle","Pin":1}}`},
		{"intent/none", ledger.KindIntent, controller.IntentRecord{Phase: "begin", Op: "terminate", ID: "in-000002"},
			`{"phase":"begin","op":"terminate","id":"in-000002"}`},
		{"stale-serve/age 0", ledger.KindDegraded, controller.StaleServeRecord{Cause: "breaker open"}, `{"age_ns":0,"cause":"breaker open"}`},
		{"stale-serve", ledger.KindDegraded, controller.StaleServeRecord{AgeNS: 1500000000, Cause: "breaker open"},
			`{"age_ns":1500000000,"cause":"breaker open"}`},
		{"periodic-loss/all", ledger.KindDegraded, controller.PeriodicLossRecord{Dropped: 3, Skipped: 2}, `{"dropped":3,"skipped":2}`},
		{"periodic-loss/none", ledger.KindDegraded, controller.PeriodicLossRecord{}, `{}`},
		{"issuance", ledger.KindCertIssue, pca.IssuanceRecord{Subject: "anon-4", Serial: 4, Purpose: pca.PurposeAttestationKey},
			`{"subject":"anon-4","serial":4,"purpose":"cloudmonatt-attestation-key"}`},
		{"rpc-fault/all", ledger.KindRPCFault,
			rpc.FaultRecord{Event: "retry", Peer: "server-a", Method: "measure", Attempt: 2, Err: "reset", From: "closed", To: "open"},
			`{"event":"retry","peer":"server-a","method":"measure","attempt":2,"err":"reset","from":"closed","to":"open"}`},
		{"rpc-fault/none", ledger.KindRPCFault, rpc.FaultRecord{Event: "breaker", Peer: "server-a"}, `{"event":"breaker","peer":"server-a"}`},
	}
	l, err := ledger.Open(ledger.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if err := l.Record(ledger.Entry{Kind: row.kind}, row.rec); err != nil {
				t.Fatal(err)
			}
			seq, _ := l.Head()
			e, err := l.Entry(seq)
			if err != nil {
				t.Fatal(err)
			}
			if string(e.Payload) != row.want {
				t.Fatalf("recorded\n\t%s\nwant\n\t%s", e.Payload, row.want)
			}
			back := reflect.New(reflect.TypeOf(row.rec))
			if err := e.Decode(back.Interface()); err != nil {
				t.Fatal(err)
			}
			if got := back.Elem().Interface(); !reflect.DeepEqual(got, row.rec) {
				t.Fatalf("decoded %+v, recorded %+v", got, row.rec)
			}
		})
	}
}
