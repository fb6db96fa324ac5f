package ledger

import (
	"testing"
	"time"
)

// TestAppendAllocBudget pins what an uncontended append costs once its
// posting lists exist: nothing. The serialization buffer and the queue are
// the committer's scratch, the waiter comes off the free list with the
// buffer Record encodes into, posting keys are not built by concatenation,
// and appenders wait on the ledger's condition instead of a channel each.
// The growth of the index, the posting lists and the segment's chunks
// amortizes to well under one allocation per append.
func TestAppendAllocBudget(t *testing.T) {
	l := mustOpen(t, Options{})
	e := Entry{Kind: KindAppraisal, Vid: "vm-0001", Prop: "runtime-integrity", Trace: "t-1",
		Payload: probe{N: 1, Note: "cloud-server-0"}.AppendWire(nil)}
	rec := probe{Note: "cloud-server-0"}
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
	} {
		for i := 0; i < 100; i++ {
			appendOne()
		}
		got := testing.AllocsPerRun(2000, appendOne)
		t.Logf("one %s allocates %.2f times", name, got)
		if got != 0 {
			t.Errorf("one %s allocates %.2f times, want 0", name, got)
		}
	}
}
