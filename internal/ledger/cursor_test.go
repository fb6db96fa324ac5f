package ledger

import "testing"

func TestCursorWalksChainInOrder(t *testing.T) {
	l := mustOpen(t, Options{})
	entries := appendN(t, l, 7)

	c := l.Cursor()
	for i, want := range entries {
		e, ok, err := c.Next()
		if err != nil || !ok {
			t.Fatalf("Next %d = ok=%v err=%v", i, ok, err)
		}
		if e.Seq != want.Seq || e.Hash != want.Hash {
			t.Fatalf("entry %d: seq %d hash %x, want seq %d hash %x", i, e.Seq, e.Hash, want.Seq, want.Hash)
		}
	}
	if _, ok, err := c.Next(); ok || err != nil {
		t.Fatalf("cursor past head: ok=%v err=%v", ok, err)
	}

	// The cursor observes appends made after it reached the head.
	more := appendN(t, l, 2)
	e, ok, err := c.Next()
	if err != nil || !ok || e.Seq != more[0].Seq {
		t.Fatalf("post-append Next = %+v ok=%v err=%v", e, ok, err)
	}
}

func TestCursorEmptyLedger(t *testing.T) {
	l := mustOpen(t, Options{})
	c := l.Cursor()
	if _, ok, err := c.Next(); ok || err != nil {
		t.Fatalf("empty ledger: ok=%v err=%v", ok, err)
	}
}
