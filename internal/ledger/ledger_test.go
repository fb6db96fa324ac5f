package ledger

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"cloudmonatt/internal/cryptoutil"
)

func mustOpen(t *testing.T, opts Options) *Ledger {
	t.Helper()
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func appendN(t *testing.T, l *Ledger, n int) []Entry {
	t.Helper()
	out := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		e, err := l.Append(Entry{
			At:      time.Duration(i) * time.Second,
			Kind:    KindAppraisal,
			Vid:     fmt.Sprintf("vm-%04d", i%3),
			Prop:    "runtime-integrity",
			Payload: probe{N: uint64(i)}.AppendWire(nil),
		})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
	}
	return out
}

func TestAppendChainsAndVerifies(t *testing.T) {
	l := mustOpen(t, Options{})
	entries := appendN(t, l, 10)
	for i, e := range entries {
		if e.Seq != uint64(i+1) {
			t.Fatalf("entry %d got seq %d", i, e.Seq)
		}
		if i > 0 && e.PrevHash != entries[i-1].Hash {
			t.Fatalf("entry %d does not chain", i)
		}
	}
	n, err := l.Verify()
	if err != nil || n != 10 {
		t.Fatalf("Verify = %d, %v", n, err)
	}
	seq, hash := l.Head()
	if seq != 10 || hash != entries[9].Hash {
		t.Fatalf("head = %d %x", seq, hash)
	}
}

func TestAppendValidation(t *testing.T) {
	l := mustOpen(t, Options{})
	if _, err := l.Append(Entry{}); err == nil {
		t.Fatal("entry without kind accepted")
	}
	if _, err := l.Append(Entry{Kind: KindLaunch, Payload: make([]byte, maxPayload+1)}); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

// TestQueryByVidKindPropTime runs the same queries on a disk ledger's
// writer and on a read-only reopen of it, rolled into several segments:
// Query walks the chain either way, so both must answer alike.
func TestQueryByVidKindPropTime(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, Options{Dir: dir, MaxSegmentBytes: 512})
	appendN(t, w, 9) // vids vm-0000..vm-0002 round robin
	if _, err := w.Append(Entry{At: 100 * time.Second, Kind: KindRemediation, Vid: "vm-0001", Prop: "cpu-availability"}); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, Options{Dir: dir, ReadOnly: true, MaxSegmentBytes: 512})
	if len(r.segs) < 2 {
		t.Fatalf("the ledger holds %d segment(s), want it rolled", len(r.segs))
	}

	for _, c := range []struct {
		name string
		l    *Ledger
	}{{"writer", w}, {"read-only reopen", r}} {
		t.Run(c.name, func(t *testing.T) { checkQueries(t, c.l) })
	}
}

func checkQueries(t *testing.T, l *Ledger) {
	byVid, err := l.Query(Filter{Vid: "vm-0001"})
	if err != nil || len(byVid) != 4 {
		t.Fatalf("by vid: %d entries, %v", len(byVid), err)
	}
	byKind, err := l.Query(Filter{Kind: KindRemediation})
	if err != nil || len(byKind) != 1 || byKind[0].Vid != "vm-0001" {
		t.Fatalf("by kind: %+v, %v", byKind, err)
	}
	byProp, err := l.Query(Filter{Prop: "cpu-availability"})
	if err != nil || len(byProp) != 1 {
		t.Fatalf("by prop: %d entries, %v", len(byProp), err)
	}
	// Combined: vid + kind.
	combined, err := l.Query(Filter{Vid: "vm-0001", Kind: KindAppraisal})
	if err != nil || len(combined) != 3 {
		t.Fatalf("combined: %d entries, %v", len(combined), err)
	}
	limited, err := l.Query(Filter{Kind: KindAppraisal, Limit: 2})
	if err != nil || len(limited) != 2 {
		t.Fatalf("limited: %d entries, %v", len(limited), err)
	}
	none, err := l.Query(Filter{Vid: "ghost"})
	if err != nil || len(none) != 0 {
		t.Fatalf("ghost vid matched: %+v", none)
	}
}

func TestConcurrentAppendersGroupCommit(t *testing.T) {
	l := mustOpen(t, Options{})
	const goroutines, perG = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, err := l.Append(Entry{Kind: KindAppraisal, Vid: fmt.Sprintf("vm-%d", g)}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n, err := l.Verify(); err != nil || n != goroutines*perG {
		t.Fatalf("Verify = %d, %v", n, err)
	}
	if got := l.Metrics().IntSummary("ledger/batch-size").Snapshot().Count; got == 0 {
		t.Fatal("no batch-size observations recorded")
	}
	if got := l.Metrics().Summary("ledger/append").Snapshot().Count; got != goroutines*perG {
		t.Fatalf("append summary count = %d", got)
	}
}

// at returns the byte at off of an in-memory segment, to corrupt it in place.
func (s *memSeg) at(off int) *byte { return &s.chunks[off/memChunk][off%memChunk] }

func TestSingleBitMutationDetected(t *testing.T) {
	// Flip one bit at every byte offset of a committed chain in turn; every
	// single mutation must fail Verify.
	base := mustOpen(t, Options{})
	appendN(t, base, 5)
	ms := base.st.(*memStore)
	names, _ := ms.Segments()
	if len(names) != 1 {
		t.Fatalf("segments: %v", names)
	}
	seg := ms.files[names[0]]
	size := seg.size
	for off := 0; off < size; off++ {
		*seg.at(off) ^= 0x01
		if _, err := base.Verify(); err == nil {
			t.Fatalf("bit flip at offset %d/%d not detected", off, size)
		}
		*seg.at(off) ^= 0x01
	}
	if n, err := base.Verify(); err != nil || n != 5 {
		t.Fatalf("restored chain fails: %d, %v", n, err)
	}
}

func TestSignedCheckpoint(t *testing.T) {
	l := mustOpen(t, Options{})
	appendN(t, l, 3)
	id := cryptoutil.MustIdentity("auditor-anchor")
	cp := l.Checkpoint(id)
	if cp.Seq != 3 {
		t.Fatalf("checkpoint seq %d", cp.Seq)
	}
	if err := VerifyCheckpoint(cp, id.Public()); err != nil {
		t.Fatal(err)
	}
	forged := cp
	forged.Seq++
	if err := VerifyCheckpoint(forged, id.Public()); err == nil {
		t.Fatal("forged checkpoint accepted")
	}
	other := cryptoutil.MustIdentity("impostor")
	if err := VerifyCheckpoint(cp, other.Public()); err == nil {
		t.Fatal("checkpoint verified under wrong key")
	}
}

func TestSegmentRoll(t *testing.T) {
	// Tiny segments force rolls; the whole chain stays queryable and
	// verifiable across them, and new appends still chain.
	l := mustOpen(t, Options{MaxSegmentBytes: 256})
	appendN(t, l, 30)
	if segs, _ := l.st.Segments(); len(segs) < 3 {
		t.Fatalf("expected multiple segments, got %v", segs)
	}
	if n, err := l.Verify(); err != nil || n != 30 {
		t.Fatalf("Verify = %d, %v; want 30", n, err)
	}
	es, err := l.Query(Filter{Vid: "vm-0000"})
	if err != nil || len(es) != 10 {
		t.Fatalf("query: %d, %v; want 10", len(es), err)
	}
	if _, err := l.Append(Entry{Kind: KindLaunch, Vid: "vm-9999"}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestDiskReopenPreservesChain(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	l := mustOpen(t, Options{Dir: dir, MaxSegmentBytes: 512})
	entries := appendN(t, l, 20)
	headSeq, headHash := l.Head()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, Options{Dir: dir, MaxSegmentBytes: 512})
	seq, hash := re.Head()
	if seq != headSeq || hash != headHash {
		t.Fatalf("reopen head = %d, want %d", seq, headSeq)
	}
	if n, err := re.Verify(); err != nil || n != 20 {
		t.Fatalf("reopen Verify = %d, %v", n, err)
	}
	got, err := re.Entry(entries[7].Seq)
	if err != nil || got.Vid != entries[7].Vid || string(got.Payload) != string(entries[7].Payload) {
		t.Fatalf("reopen Entry(8) = %+v, %v", got, err)
	}
	// Appends continue the chain across the restart.
	e, err := re.Append(Entry{Kind: KindRemediation, Vid: "vm-0001"})
	if err != nil || e.Seq != headSeq+1 || e.PrevHash != headHash {
		t.Fatalf("post-reopen append %+v, %v", e, err)
	}

	// A read-only reopen, the auditor's, replays the same chain
	// independently.
	ro := mustOpen(t, Options{Dir: dir, ReadOnly: true})
	if n, err := ro.Verify(); err != nil || n != 21 {
		t.Fatalf("read-only Verify = %d, %v", n, err)
	}
	if seq, hash := ro.Head(); seq != e.Seq || hash != e.Hash {
		t.Fatalf("read-only head = %d, want %d", seq, e.Seq)
	}
}

func TestReadOnlyRejectsMutation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	l := mustOpen(t, Options{Dir: dir})
	appendN(t, l, 2)
	l.Close()

	ro := mustOpen(t, Options{Dir: dir, ReadOnly: true})
	if _, err := ro.Append(Entry{Kind: KindLaunch}); err == nil {
		t.Fatal("read-only append accepted")
	}
	if n, err := ro.Verify(); err != nil || n != 2 {
		t.Fatalf("read-only Verify = %d, %v", n, err)
	}
}

func TestClosedLedgerRejectsAppends(t *testing.T) {
	l := mustOpen(t, Options{})
	appendN(t, l, 1)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Entry{Kind: KindLaunch}); err != ErrClosed {
		t.Fatalf("append after close: %v", err)
	}
}
