package ledger

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

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
