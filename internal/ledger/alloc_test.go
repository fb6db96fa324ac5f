package ledger

import (
	"fmt"
	"testing"
	"time"
)

// TestAppendAllocBudget pins what an uncontended append costs: nothing,
// whether it names a VM and trace the ledger has seen or fresh ones. The
// serialization buffer and the queue are the committer's scratch, the
// waiter comes off the free list with the buffer Record encodes into, the
// ledger keeps no index by field, and appenders wait on the ledger's
// condition instead of a channel each. The growth of the frame locations
// and the segment's chunks amortizes to well under one allocation per
// append.
func TestAppendAllocBudget(t *testing.T) {
	const runs, warm = 2000, 100
	l := mustOpen(t, Options{})
	e := Entry{Kind: KindAppraisal, Vid: "vm-0001", Prop: "runtime-integrity", Trace: "t-1",
		Payload: probe{N: 1, Note: "cloud-server-0"}.AppendWire(nil)}
	rec := probe{Note: "cloud-server-0"}
	// The fresh case's names are rendered here, outside the measured loop:
	// one per call, warm-up and AllocsPerRun's own extra call included.
	vids, traces := make([]string, warm+runs+1), make([]string, warm+runs+1)
	for i := range vids {
		vids[i], traces[i] = fmt.Sprintf("vm-%06d", i), fmt.Sprintf("t-%06d", i)
	}
	fresh := 0
	for name, appendOne := range map[string]func(){
		"Append": func() {
			e.At += time.Second
			if _, err := l.Append(e); err != nil {
				t.Fatal(err)
			}
		},
		"Record": func() {
			e.At += time.Second
			rec.N++
			if err := Record(l, Entry{At: e.At, Kind: KindAppraisal, Vid: e.Vid, Prop: e.Prop, Trace: e.Trace}, rec); err != nil {
				t.Fatal(err)
			}
		},
		"Append with a fresh VM and trace": func() {
			e.At += time.Second
			if _, err := l.Append(Entry{At: e.At, Kind: KindAppraisal, Vid: vids[fresh], Prop: e.Prop, Trace: traces[fresh], Payload: e.Payload}); err != nil {
				t.Fatal(err)
			}
			fresh++
		},
	} {
		for i := 0; i < warm; i++ {
			appendOne()
		}
		got := testing.AllocsPerRun(runs, appendOne)
		t.Logf("one %s allocates %.2f times", name, got)
		if got != 0 {
			t.Errorf("one %s allocates %.2f times, want 0", name, got)
		}
	}
}

// TestQueryAllocsPerEntry pins what reading an entry costs: its frame, one
// allocation, plus one per non-empty VM, property or trace string. The
// frame is read with one ReadAt, the payload is a slice of it and the kind
// comes from the table of kinds. A query that matches nothing reads every
// entry and keeps none, so it costs exactly that sum.
func TestQueryAllocsPerEntry(t *testing.T) {
	const n = 1000
	l := mustOpen(t, Options{})
	budget := 0
	for i := 0; i < n; i++ {
		e := Entry{At: time.Duration(i) * time.Second, Kind: kinds[i%len(kinds)], Payload: probe{N: uint64(i)}.AppendWire(nil)}
		if i%2 == 0 {
			e.Vid = fmt.Sprintf("vm-%04d", i%7)
		}
		if i%3 == 0 {
			e.Prop = "runtime-integrity"
		}
		if i%5 == 0 {
			e.Trace = fmt.Sprintf("t-%d", i)
		}
		for _, s := range []string{e.Vid, e.Prop, e.Trace} {
			if s != "" {
				budget++
			}
		}
		if _, err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	budget += n
	got := testing.AllocsPerRun(5, func() {
		if es, err := l.Query(Filter{Vid: "vm-none"}); err != nil || len(es) != 0 {
			t.Fatalf("Query matched %d entries (%v), want none", len(es), err)
		}
	})
	t.Logf("a query over %d entries allocates %.0f times, budget %d", n, got, budget)
	if got > float64(budget) {
		t.Errorf("a query over %d entries allocates %.0f times, want at most %d", n, got, budget)
	}
}
