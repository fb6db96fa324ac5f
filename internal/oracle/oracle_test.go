package oracle

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cloudmonatt/internal/attestsrv"
	"cloudmonatt/internal/binenc"
	"cloudmonatt/internal/controller"
	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/image"
	"cloudmonatt/internal/ledger"
	"cloudmonatt/internal/metrics"
	"cloudmonatt/internal/pca"
	"cloudmonatt/internal/rpc"
	"cloudmonatt/internal/server"
	"cloudmonatt/internal/wire"
)

// entry is one hand-built ledger entry, its payload the writer's record.
type entry struct {
	kind      ledger.Kind
	vid, prop string
	payload   ledger.Appender
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
		s.Counters = append(s.Counters, metrics.Named[int64]{Name: k, Value: v})
	}
	return s
}

var signer = cryptoutil.MustIdentity("operator")

// ledgerDirs maps each run's ledger to its directory, for audit.
var ledgerDirs = make(map[*ledger.Ledger]string)

// run appends entries to a ledger in dir (a fresh temporary directory when
// empty) and returns the finished run, its head checkpointed by signer.
func run(t *testing.T, dir string, es ...entry) Run {
	t.Helper()
	if dir == "" {
		dir = t.TempDir()
	}
	l, err := ledger.Open(ledger.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	ledgerDirs[l] = dir
	for _, e := range es {
		if err := ledger.Record(l, ledger.Entry{Kind: e.kind, Vid: e.vid, Prop: e.prop}, e.payload); err != nil {
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

// audit is the auditor's view of r (monatt-ledger verify): CheckLedger on
// a read-only reopen of its ledger's directory, beside the live writer. A
// reopen the ledger refuses is a chain violation: the reopen's scan checks
// every entry's hash and link before CheckLedger could.
func audit(t *testing.T, r Run) []Violation {
	t.Helper()
	l, err := ledger.Open(ledger.Options{Dir: ledgerDirs[r.Ledger], ReadOnly: true})
	if err != nil {
		return []Violation{{Check: CheckChain, Detail: err.Error()}}
	}
	defer l.Close()
	return CheckLedger(l)
}

// TestCleanRunHasNoViolations: a run that keeps every claim — a remediation
// per unhealthy verdict however many infrastructure failures came between,
// a torn intent replayed by recovery, increasing serials — passes, under
// Check and under the auditor's CheckLedger.
func TestCleanRunHasNoViolations(t *testing.T) {
	r := run(t, "", serial(1), begin("in-1"), end("in-1"), begin("in-2"), recovered,
		healthy, unattestable, unhealthy, degraded, terminated, resumed,
		degraded, unhealthy, terminated, serial(2))
	if vs := Check(r); len(vs) != 0 {
		t.Fatalf("violations on a clean run: %v", vs)
	}
	if vs := audit(t, r); len(vs) != 0 {
		t.Fatalf("the auditor finds violations on a clean run: %v", vs)
	}
}

// TestEachCheckFindsItsViolation builds, for each check, a run that breaks
// only that check's claim, and requires exactly that check to object. A
// row that breaks a claim of the ledger alone must also be found by the
// auditor, CheckLedger on a read-only reopen of the run's ledger.
func TestEachCheckFindsItsViolation(t *testing.T) {
	ledgerOnly := map[string]bool{
		"mutated-entry": true, "remediated-twice": true, "remediated-healthy": true,
		"remediated-infra-failure": true, "intent-torn": true, "serial-reused": true,
	}
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
			r := c.build(t)
			found := map[string][]Violation{"Check": Check(r)}
			if ledgerOnly[c.name] {
				found["CheckLedger"] = audit(t, r)
			}
			for by, vs := range found {
				if len(vs) == 0 {
					t.Fatalf("%s: no violation; want one from %s", by, c.check)
				}
				for _, v := range vs {
					if v.Check != c.check || !strings.Contains(v.Detail, c.detail) {
						t.Fatalf("%s: violations %v; want only %s ones mentioning %q", by, vs, c.check, c.detail)
					}
				}
			}
		})
	}
}

// recordCase is one ledger record type: its tag, a fresh decoder, and a
// row with every field set and one with none (or, where a writer records
// a partial value, that value).
type recordCase struct {
	name  string
	kind  ledger.Kind
	tag   byte
	fresh func() ledger.Decoder
	rows  []recordRow
}

type recordRow struct {
	name string
	rec  ledger.Appender
}

func recordCases() []recordCase {
	spec := &server.LaunchSpec{Vid: "vm-0001", ImageName: "cirros", ImageDigest: [32]byte{7},
		Flavor: image.Flavor{Name: "small", VCPUs: 1, MemoryMB: 2048, DiskGB: 20}, Workload: "idle", Pin: 1}
	return []recordCase{
		{"appraisal", ledger.KindAppraisal, ledger.TagAppraisalRecord, func() ledger.Decoder { return new(attestsrv.AppraisalRecord) }, []recordRow{
			{"all", attestsrv.AppraisalRecord{Server: "cloud-server-3", Backend: "sev-snp", Healthy: true, Unattestable: true, Class: "platform", Reason: "not attestable"}},
			{"none", attestsrv.AppraisalRecord{}},
		}},
		{"launch", ledger.KindLaunch, ledger.TagLaunchRecord, func() ledger.Decoder { return new(controller.LaunchRecord) }, []recordRow{
			{"all", controller.LaunchRecord{OK: true, Owner: "alice", Server: "cloud-server-1", Backend: "tpm", Reason: "placed"}},
			{"none", controller.LaunchRecord{}},
		}},
		{"remediation", ledger.KindRemediation, ledger.TagRemediationRecord, func() ledger.Decoder { return new(controller.RemediationRecord) }, []recordRow{
			{"all", controller.RemediationRecord{Response: "migration", Reason: "bimodal histogram", Backend: "vtpm", NewServer: "cloud-server-2", Terminated: true, Intent: "in-000007"}},
			{"none (resume)", controller.RemediationRecord{Response: "resume"}},
		}},
		{"intent", ledger.KindIntent, ledger.TagIntentRecord, func() ledger.Decoder { return new(controller.IntentRecord) }, []recordRow{
			{"all", controller.IntentRecord{
				Phase: "end", Op: "launch", ID: "in-000001", OK: true,
				Owner: "alice", Image: "cirros", Flavor: "small", Workload: "idle",
				Props: []string{"runtime-integrity"}, Allowlist: []string{"init"},
				MinShare: 0.25, Pin: -1, ReqServer: "cloud-server-1", Server: "cloud-server-2",
				Response: "termination", Reason: "rootkit", NewServer: "cloud-server-3", Terminated: true,
				State: "suspended", Spec: spec,
			}},
			{"none", controller.IntentRecord{}},
		}},
		{"stale-serve", ledger.KindDegraded, ledger.TagStaleServeRecord, func() ledger.Decoder { return new(controller.StaleServeRecord) }, []recordRow{
			{"", controller.StaleServeRecord{AgeNS: 1500000000, Cause: "breaker open"}},
			{"age 0", controller.StaleServeRecord{Cause: "breaker open"}},
			{"none", controller.StaleServeRecord{}},
		}},
		{"periodic-loss", ledger.KindDegraded, ledger.TagPeriodicLossRecord, func() ledger.Decoder { return new(controller.PeriodicLossRecord) }, []recordRow{
			{"all", controller.PeriodicLossRecord{Dropped: 3, Skipped: 2}},
			{"none", controller.PeriodicLossRecord{}},
		}},
		{"issuance", ledger.KindCertIssue, ledger.TagIssuanceRecord, func() ledger.Decoder { return new(pca.IssuanceRecord) }, []recordRow{
			{"", pca.IssuanceRecord{Subject: "anon-4", Serial: 4, Purpose: pca.PurposeAttestationKey}},
			{"none", pca.IssuanceRecord{}},
		}},
		{"rpc-fault", ledger.KindRPCFault, ledger.TagFaultRecord, func() ledger.Decoder { return new(rpc.FaultRecord) }, []recordRow{
			{"all", rpc.FaultRecord{Event: "retry", Peer: "server-a", Method: "measure", Attempt: 2, Err: "reset", From: "closed", To: "open"}},
			{"none", rpc.FaultRecord{}},
		}},
	}
}

// TestRecordEncodingsUnchanged pins every ledger record type's encoding to
// a committed golden vector per row (testdata/records), and checks that
// the entry Record writes carries exactly those bytes, led by the type's
// tag, and decodes back to the recorded value. Ledgers hold these bytes
// and chain hashes over them, so a changed tag, field order or field
// encoding fails here; regenerate with REGEN_GOLDEN=1 only for a format
// change the segment version records. This package imports every record
// type's package.
func TestRecordEncodingsUnchanged(t *testing.T) {
	l, err := ledger.Open(ledger.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, rc := range recordCases() {
		for _, row := range rc.rows {
			name := rc.name
			if row.name != "" {
				name += "/" + row.name
			}
			t.Run(name, func(t *testing.T) {
				path := filepath.Join("testdata", "records", strings.NewReplacer("/", "-", " ", "-", "(", "", ")", "").Replace(name)+".hex")
				enc := row.rec.AppendWire(nil)
				if os.Getenv("REGEN_GOLDEN") != "" {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(hex.EncodeToString(enc)+"\n"), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden vector (run with REGEN_GOLDEN=1 after an intentional format change): %v", err)
				}
				want, err := hex.DecodeString(string(bytes.TrimSpace(raw)))
				if err != nil {
					t.Fatal(err)
				}
				if err := ledger.Record(l, ledger.Entry{Kind: rc.kind}, row.rec); err != nil {
					t.Fatal(err)
				}
				seq, _ := l.Head()
				e, err := l.Entry(seq)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(e.Payload, want) || !bytes.Equal(enc, want) {
					t.Fatalf("recorded\n\t%x\nencoded\n\t%x\nwant\n\t%x", e.Payload, enc, want)
				}
				if e.Tag() != rc.tag {
					t.Fatalf("the entry's tag is %d, want %d", e.Tag(), rc.tag)
				}
				back := rc.fresh()
				if err := e.Decode(back); err != nil {
					t.Fatal(err)
				}
				if got := reflect.ValueOf(back).Elem().Interface(); !reflect.DeepEqual(got, row.rec) {
					t.Fatalf("decoded %+v, recorded %+v", got, row.rec)
				}
			})
		}
	}
}

// TestRecordDecodersRefuseForeignBytes: each record type's DecodeWire
// takes its own encoding and nothing near it: not with a byte after it,
// not one byte short, and not under any other record type's tag. The
// tags are distinct, and outside internal/wire's message tags.
func TestRecordDecodersRefuseForeignBytes(t *testing.T) {
	cases := recordCases()
	seen := make(map[byte]string)
	for _, rc := range cases {
		if rc.tag <= wire.TagRebindRequest {
			t.Errorf("%s has tag %d, inside the wire messages' range", rc.name, rc.tag)
		}
		if other, dup := seen[rc.tag]; dup {
			t.Errorf("%s and %s share tag %d", rc.name, other, rc.tag)
		}
		seen[rc.tag] = rc.name
	}
	for _, rc := range cases {
		own := rc.rows[0].rec.AppendWire(nil)
		bodies := []struct {
			name string
			body []byte
			want error
		}{
			{"trailing byte", append(own[:len(own):len(own)], 0), binenc.ErrTrailing},
			{"truncated by one byte", own[:len(own)-1], binenc.ErrTruncated},
			{"header only", own[:3], binenc.ErrTruncated},
		}
		for _, other := range cases {
			if other.tag != rc.tag {
				retagged := append([]byte{binenc.Magic, binenc.Version, other.tag}, own[3:]...)
				bodies = append(bodies, struct {
					name string
					body []byte
					want error
				}{other.name + "'s tag", retagged, binenc.ErrHeader})
			}
		}
		for _, b := range bodies {
			if err := rc.fresh().DecodeWire(b.body); !errors.Is(err, b.want) {
				t.Errorf("%s with %s: %v, want %v", rc.name, b.name, err, b.want)
			}
		}
	}
}
