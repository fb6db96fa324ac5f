package ledger

import (
	"fmt"
	"strings"
	"sync"
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

// TestConcurrentRecordsKeepTheirPayloads: appenders that Record at once
// share waiters and their encoding buffers one append after another, and
// every entry still holds exactly the record its appender encoded.
func TestConcurrentRecordsKeepTheirPayloads(t *testing.T) {
	l := mustOpen(t, Options{})
	const goroutines, perG = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			vid := fmt.Sprintf("vm-%d", g)
			for i := 0; i < perG; i++ {
				// The note's length varies so a reused buffer is sometimes
				// longer than the record it is reused for.
				rec := probe{N: uint64(g*perG + i), Note: strings.Repeat(vid, i%4)}
				if err := Record(l, Entry{Kind: KindAppraisal, Vid: vid}, rec); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	es, err := l.Query(Filter{})
	if err != nil || len(es) != goroutines*perG {
		t.Fatalf("%d entries, %v", len(es), err)
	}
	seen := make(map[uint64]bool)
	for _, e := range es {
		var got probe
		if err := e.Decode(&got); err != nil {
			t.Fatal(err)
		}
		g, i := int(got.N)/perG, int(got.N)%perG
		if vid := fmt.Sprintf("vm-%d", g); e.Vid != vid || got.Note != strings.Repeat(vid, i%4) || seen[got.N] {
			t.Fatalf("entry %d (%s) holds %+v", e.Seq, e.Vid, got)
		}
		seen[got.N] = true
	}
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
