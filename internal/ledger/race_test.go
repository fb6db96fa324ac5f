package ledger

import (
	"testing"
	"time"
)

// hookStore is an in-memory store that runs onWriteAux before writing an
// auxiliary file and onWrite before writing to a segment it created: the
// point where Compact has released the lock between its two phases, and the
// point where a commit has serialized its batch but not yet published it.
type hookStore struct {
	*memStore
	onWriteAux func()
	onWrite    func()
}

func (h *hookStore) WriteAux(name string, data []byte) error {
	if h.onWriteAux != nil {
		h.onWriteAux()
	}
	return h.memStore.WriteAux(name, data)
}

func (h *hookStore) Create(name string) (segFile, error) {
	f, err := h.memStore.Create(name)
	if err != nil {
		return nil, err
	}
	return hookSeg{segFile: f, h: h}, nil
}

type hookSeg struct {
	segFile
	h *hookStore
}

func (s hookSeg) Write(p []byte) (int, error) {
	if s.h.onWrite != nil {
		s.h.onWrite()
	}
	return s.segFile.Write(p)
}

// TestCompactDuringCommit: a commit that serializes its batch while Compact
// is between its phases, and publishes after Compact renumbered the
// segments, must still address its entry in the segment it wrote to.
func TestCompactDuringCommit(t *testing.T) {
	hs := &hookStore{memStore: newMemStore()}
	l, err := open(Options{MaxSegmentBytes: 256, Now: time.Now}, hs)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 30)

	serialized, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var late Entry
	var lateErr error
	hs.onWriteAux = func() {
		hs.onWrite = func() {
			close(serialized)
			<-release
		}
		go func() {
			defer close(done)
			late, lateErr = l.Append(Entry{Kind: KindLaunch, Vid: "vm-late"})
		}()
		<-serialized
	}
	if err := l.Compact(20); err != nil {
		t.Fatal(err)
	}
	if l.base.Seq == 0 {
		t.Fatal("compaction retired nothing: the race was not set up")
	}
	close(release)
	<-done
	hs.onWrite, hs.onWriteAux = nil, nil
	if lateErr != nil {
		t.Fatal(lateErr)
	}

	got, err := l.Entry(late.Seq)
	if err != nil || got.Vid != "vm-late" || got.Hash != late.Hash {
		t.Fatalf("Entry(%d) = %+v, %v; want the entry committed during compaction", late.Seq, got, err)
	}
	if _, err := l.Verify(); err != nil {
		t.Fatal(err)
	}
	if es, err := l.Query(Filter{Vid: "vm-late"}); err != nil || len(es) != 1 {
		t.Fatalf("query for the late entry: %d entries, %v", len(es), err)
	}
}
