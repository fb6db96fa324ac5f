package oracle

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/ledger"
	"cloudmonatt/internal/metrics"
)

// entry is one hand-built ledger entry.
type entry struct {
	kind      ledger.Kind
	vid, prop string
	payload   string
}

var (
	unhealthy    = entry{ledger.KindAppraisal, "vm-1", "runtime-integrity", `{"server":"s","healthy":false,"reason":"rootkit"}`}
	healthy      = entry{ledger.KindAppraisal, "vm-1", "runtime-integrity", `{"server":"s","healthy":true}`}
	unattestable = entry{ledger.KindAppraisal, "vm-1", "runtime-integrity", `{"server":"s","healthy":false,"unattestable":true}`}
	degraded     = entry{ledger.KindDegraded, "vm-1", "runtime-integrity", `{"age_ns":1,"cause":"partition"}`}
	terminated   = entry{ledger.KindRemediation, "vm-1", "runtime-integrity", `{"response":"terminate","terminated":true}`}
	resumed      = entry{ledger.KindRemediation, "vm-1", "", `{"response":"resume"}`}
	recovered    = entry{ledger.KindIntent, "", "", `{"phase":"end","op":"recover","id":"in-9"}`}
)

func begin(id string) entry {
	return entry{ledger.KindIntent, "vm-1", "", `{"phase":"begin","op":"launch","id":"` + id + `"}`}
}

func end(id string) entry {
	return entry{ledger.KindIntent, "vm-1", "", `{"phase":"end","op":"launch","id":"` + id + `","ok":true}`}
}

func serial(n string) entry {
	return entry{ledger.KindCertIssue, "", "", `{"subject":"anon-` + n + `","serial":` + n + `}`}
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
		if _, err := l.Append(ledger.Entry{Kind: e.kind, Vid: e.vid, Prop: e.prop, Payload: []byte(e.payload)}); err != nil {
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
	r := run(t, "", serial("1"), begin("in-1"), end("in-1"), begin("in-2"), recovered,
		healthy, unattestable, unhealthy, degraded, terminated, resumed,
		degraded, unhealthy, terminated, serial("2"))
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
			return run(t, "", serial("1"), serial("2"), serial("2"))
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
