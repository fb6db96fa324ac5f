package ledger

import (
	"testing"
	"time"
)

// appendAllocBudget is what one Append of an appraisal-shaped entry on the
// in-memory store may allocate: the queued waiter. The growth of the index,
// the posting lists and the segment's chunks amortizes to well under one.
const appendAllocBudget = 1

// TestAppendAllocBudget pins what an uncontended Append costs once its posting
// lists exist: the serialization buffer and the queue are the committer's
// scratch, posting keys are not built by concatenation, and appenders wait
// on the ledger's condition instead of a channel each (9 allocations before).
func TestAppendAllocBudget(t *testing.T) {
	l := mustOpen(t, Options{})
	e := Entry{Kind: KindAppraisal, Vid: "vm-0001", Prop: "runtime-integrity", Trace: "t-1",
		Payload: []byte(`{"server":"cloud-server-0","healthy":true}`)}
	appendOne := func() {
		e.At += time.Second
		if _, err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		appendOne()
	}
	got := testing.AllocsPerRun(2000, appendOne)
	t.Logf("one Append allocates %.2f times (budget %d)", got, appendAllocBudget)
	if got > appendAllocBudget {
		t.Fatalf("one Append allocates %.2f times, want at most %d", got, appendAllocBudget)
	}
}
