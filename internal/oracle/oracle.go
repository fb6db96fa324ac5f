// Package oracle judges a finished run of the cloud from what the run
// leaves behind — the evidence ledger, a signed checkpoint of its head and
// the attestation servers' metrics — against the claims the system makes
// of every run, whatever faults it met:
//
//   - the hash chain verifies, and the signed checkpoint anchors its head;
//   - every periodic tick a shard popped resolved to exactly one outcome:
//     ticks == produced + skipped + failures + stopped-discards;
//   - each remediation answers an unhealthy verdict no earlier remediation
//     answered, so none runs twice for one verdict and none follows an
//     infrastructure failure (a KindDegraded serve) alone;
//   - every begun intent was ended, or a later recovery replayed it;
//   - the privacy CA's certificate serials strictly increase.
//
// Check reads only those artefacts, so a test calls it after any scenario;
// CheckLedger, the checks that read the ledger alone, is what an auditor
// holding only the ledger runs (cmd/monatt-ledger verify).
package oracle

import (
	"crypto/ed25519"
	"fmt"
	"slices"
	"sort"

	"cloudmonatt/internal/attestsrv"
	"cloudmonatt/internal/controller"
	"cloudmonatt/internal/ledger"
	"cloudmonatt/internal/metrics"
	"cloudmonatt/internal/pca"
)

// Run is what a finished run leaves behind.
type Run struct {
	Ledger *ledger.Ledger
	// Checkpoint is the ledger head as signed at the end of the run, and
	// CheckpointKey the key it must verify under.
	Checkpoint    ledger.Checkpoint
	CheckpointKey ed25519.PublicKey
	// Shards holds each attestation server's metrics, by shard name.
	Shards map[string]metrics.RegistrySnapshot
}

// The checks, named as a Violation names them.
const (
	CheckChain       = "chain"
	CheckPeriodic    = "periodic-accounting"
	CheckRemediation = "remediation"
	CheckIntents     = "intents"
	CheckSerials     = "cert-serials"
)

// Violation is one broken claim: the check that found it and what it saw.
type Violation struct {
	Check  string
	Detail string
}

func (v Violation) String() string { return v.Check + ": " + v.Detail }

// Check runs every check over r and returns what they found, in check order.
func Check(r Run) []Violation {
	var vs []Violation
	report := reporter(&vs)
	cp := r.Checkpoint
	if err := ledger.VerifyCheckpoint(cp, r.CheckpointKey); err != nil {
		report(CheckChain, "%v", err)
	}
	if seq, hash := r.Ledger.Head(); cp.Seq != seq || cp.Hash != hash {
		report(CheckChain, "the checkpoint signs seq %d, %x, not the head (seq %d, %x)", cp.Seq, cp.Hash[:4], seq, hash[:4])
	}
	checkPeriodic(r.Shards, report)
	return inCheckOrder(append(vs, CheckLedger(r.Ledger)...))
}

type reportFunc func(check, format string, args ...any)

func reporter(vs *[]Violation) reportFunc {
	return func(check, format string, args ...any) {
		*vs = append(*vs, Violation{Check: check, Detail: fmt.Sprintf(format, args...)})
	}
}

// inCheckOrder orders vs by check, each check's violations as they were
// found.
func inCheckOrder(vs []Violation) []Violation {
	order := []string{CheckChain, CheckPeriodic, CheckRemediation, CheckIntents, CheckSerials}
	slices.SortStableFunc(vs, func(a, b Violation) int {
		return slices.Index(order, a.Check) - slices.Index(order, b.Check)
	})
	return vs
}

// checkPeriodic holds each shard's periodic engine to its accounting.
func checkPeriodic(shards map[string]metrics.RegistrySnapshot, report reportFunc) {
	names := make([]string, 0, len(shards))
	for name := range shards {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		counters := make(map[string]int64)
		for _, c := range shards[name].Counters {
			counters[c.Name] = c.Value
		}
		ticks := counters["periodic/ticks"]
		resolved := counters["periodic/produced"] + counters["periodic/skipped"] +
			counters["periodic/failures"] + counters["periodic/stopped-discards"]
		if ticks != resolved {
			report(CheckPeriodic, "shard %s popped %d ticks but resolved %d", name, ticks, resolved)
		}
	}
}

// CheckLedger runs the checks that read the ledger alone and returns what
// they found, in check order. It verifies the chain, then walks it once,
// each entry feeding the check its kind concerns. An intent still open at
// the head counts as torn, so an auditor checks a finished or recovered run.
func CheckLedger(l *ledger.Ledger) []Violation {
	var vs []Violation
	report := reporter(&vs)
	if _, err := l.Verify(); err != nil {
		report(CheckChain, "%v", err)
	}

	type key struct{ vid, prop string }
	type state struct {
		owed     bool // an unhealthy verdict awaits its remediation
		degraded bool // an infrastructure failure was served since the last verdict
	}
	states := make(map[key]*state)
	at := func(e *ledger.Entry) *state {
		k := key{e.Vid, e.Prop}
		if states[k] == nil {
			states[k] = new(state)
		}
		return states[k]
	}
	open := make(map[string]ledger.Entry) // intent ID → its begin entry
	var lastSerial uint64

	cur := l.Cursor()
	for {
		e, ok, err := cur.Next()
		if err != nil {
			report(CheckChain, "reading entry %d: %v", cur.Seq(), err)
			break
		}
		if !ok {
			break
		}
		switch e.Kind {
		// remediation: each answers an unhealthy verdict no earlier one answered.
		case ledger.KindAppraisal:
			var v attestsrv.AppraisalRecord
			if err := e.Decode(&v); err != nil {
				report(CheckRemediation, "%v", err)
				continue
			}
			if !v.Healthy && !v.Unattestable {
				st := at(&e)
				st.owed, st.degraded = true, false
			}
		case ledger.KindDegraded:
			at(&e).degraded = true
		case ledger.KindRemediation:
			var rem controller.RemediationRecord
			if err := e.Decode(&rem); err != nil {
				report(CheckRemediation, "%v", err)
				continue
			}
			if rem.Response == "resume" {
				continue // the end of a suspension, not a response to a verdict
			}
			st := at(&e)
			switch {
			case st.owed:
			case st.degraded:
				report(CheckRemediation, "remediation %d (%s of %s) follows an infrastructure failure, not an unhealthy verdict", e.Seq, rem.Response, e.Vid)
			default:
				report(CheckRemediation, "remediation %d (%s of %s) answers no unhealthy verdict a remediation has not answered already", e.Seq, rem.Response, e.Vid)
			}
			st.owed = false
		// intents: each begun one is ended, or a recovery pass replays it.
		case ledger.KindIntent:
			var ir controller.IntentRecord
			if err := e.Decode(&ir); err != nil {
				report(CheckIntents, "%v", err)
				continue
			}
			switch {
			case ir.Op == "recover":
				clear(open)
			case ir.Phase == "begin":
				open[ir.ID] = e
			default:
				delete(open, ir.ID)
			}
		// cert-serials: issuance serials strictly increase.
		case ledger.KindCertIssue:
			var c pca.IssuanceRecord
			if err := e.Decode(&c); err != nil {
				report(CheckSerials, "%v", err)
				continue
			}
			if c.Serial <= lastSerial {
				report(CheckSerials, "issuance %d has serial %d after serial %d", e.Seq, c.Serial, lastSerial)
			}
			lastSerial = c.Serial
		}
	}

	torn := make([]ledger.Entry, 0, len(open))
	for _, e := range open {
		torn = append(torn, e)
	}
	sort.Slice(torn, func(i, j int) bool { return torn[i].Seq < torn[j].Seq })
	for _, e := range torn {
		report(CheckIntents, "intent begun at %d (vm %q) was never ended or replayed", e.Seq, e.Vid)
	}
	return inCheckOrder(vs)
}
