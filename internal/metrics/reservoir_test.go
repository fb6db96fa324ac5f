package metrics

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestReservoirRetainsWholeStream distinguishes Algorithm R from the old
// deterministic ring overwrite (`samples[count%maxSamples] = v`). Feed a
// strictly increasing stream of 3·maxSamples values: the ring scheme keeps
// exactly the most recent 4096-observation window, so every retained
// sample is ≥ 2·maxSamples and the retained median sits around
// 2.5·maxSamples. A true reservoir retains each observation with equal
// probability maxSamples/count, so roughly a third of the retained set
// comes from each third of the stream.
func TestReservoirRetainsWholeStream(t *testing.T) {
	total := 3 * maxSamples
	var s Summary[time.Duration]
	for i := 0; i < total; i++ {
		s.Observe(time.Duration(i))
	}
	sn := s.Snapshot()
	if len(sn.Samples) != maxSamples {
		t.Fatalf("retained %d samples, want %d", len(sn.Samples), maxSamples)
	}

	lastWindowStart := time.Duration(2 * maxSamples)
	early := 0
	for _, v := range sn.Samples {
		if v < lastWindowStart {
			early++
		}
	}
	// Expected early count ≈ 2/3·maxSamples (~2731). The ring scheme gives
	// exactly 0. Any threshold well above 0 and below the expectation
	// distinguishes them; a third of maxSamples is far beyond noise.
	if early < maxSamples/3 {
		t.Fatalf("only %d retained samples predate the last window; reservoir degenerated to a sliding window", early)
	}
	// The retained median must reflect the whole stream (~1.5·maxSamples),
	// not the last window (~2.5·maxSamples).
	if p50 := sn.Quantile(0.5); p50 >= lastWindowStart {
		t.Fatalf("p50 = %v sits inside the last window; want a whole-stream median", p50)
	}
}

// TestIntReservoirRetainsWholeStream is the same check for an integer
// summary.
func TestIntReservoirRetainsWholeStream(t *testing.T) {
	total := 3 * maxSamples
	var s Summary[int64]
	for i := 0; i < total; i++ {
		s.Observe(int64(i))
	}
	sn := s.Snapshot()
	early := 0
	for _, v := range sn.Samples {
		if v < int64(2*maxSamples) {
			early++
		}
	}
	if early < maxSamples/3 {
		t.Fatalf("only %d retained samples predate the last window", early)
	}
}

// TestReservoirDeterministic pins that the fixed-seed PRNG makes the
// retained sample set identical across runs — the property the seeded
// simulation depends on.
func TestReservoirDeterministic(t *testing.T) {
	feed := func() Snapshot[time.Duration] {
		var s Summary[time.Duration]
		for i := 0; i < 3*maxSamples; i++ {
			s.Observe(time.Duration(i))
		}
		return s.Snapshot()
	}
	a, b := feed(), feed()
	if len(a.Samples) != len(b.Samples) {
		t.Fatalf("sample counts differ: %d vs %d", len(a.Samples), len(b.Samples))
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, a.Samples[i], b.Samples[i])
		}
	}
}

// TestSnapshotNotTorn hammers a summary with concurrent observations of a
// single constant value while snapshotting. Because every observation is
// the same v, any internally consistent view satisfies Sum == Count·v and
// Min == Max == v; the old render path read each field under its own lock
// acquisition, so a concurrent Observe could land between the reads and
// break the identity. Run with -race to also catch raw data races.
func TestSnapshotNotTorn(t *testing.T) {
	const v = 3 * time.Millisecond
	var s Summary[time.Duration]
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				s.Observe(v)
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		sn := s.Snapshot()
		if sn.Sum != time.Duration(sn.Count)*v {
			t.Errorf("torn snapshot: count=%d sum=%v", sn.Count, sn.Sum)
			break
		}
		if sn.Count > 0 && (sn.Min != v || sn.Max != v) {
			t.Errorf("torn snapshot: min=%v max=%v", sn.Min, sn.Max)
			break
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestIntSnapshotNotTorn is the same invariant for an integer summary,
// exercising Render (which consumes snapshots) concurrently as well.
func TestIntSnapshotNotTorn(t *testing.T) {
	const v = int64(7)
	r := NewRegistry()
	s := r.IntSummary("torn")
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				s.Observe(v)
			}
		}()
	}
	for i := 0; i < 1000; i++ {
		sn := s.Snapshot()
		if sn.Sum != int64(sn.Count)*v {
			t.Errorf("torn snapshot: count=%d sum=%d", sn.Count, sn.Sum)
			break
		}
		_ = r.Render()
	}
	stop.Store(true)
	wg.Wait()
}

// TestCounterConcurrent pins that the atomic counter loses nothing under
// contention.
func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	c.Add(5)
	if got := c.Value(); got != 8005 {
		t.Fatalf("Counter = %d, want 8005", got)
	}
}

// TestRegistrySnapshot checks the exporter-facing consistent view.
func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Summary("lat").Observe(time.Second)
	r.Summary("lat").Observe(3 * time.Second)
	r.IntSummary("batch").Observe(4)
	r.Counter("retries").Add(9)
	snap := r.Snapshot()
	if len(snap.Summaries) != 1 || snap.Summaries[0].Name != "lat" {
		t.Fatalf("Summaries = %+v", snap.Summaries)
	}
	if got := snap.Summaries[0].Value.Mean(); got != float64(2*time.Second) {
		t.Fatalf("lat mean = %v", got)
	}
	if len(snap.IntSummaries) != 1 || snap.IntSummaries[0].Value.Count != 1 {
		t.Fatalf("IntSummaries = %+v", snap.IntSummaries)
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Value != 9 {
		t.Fatalf("Counters = %+v", snap.Counters)
	}
	if out := r.Render(); !strings.Contains(out, "retries") || !strings.Contains(out, "n=9") {
		t.Fatalf("Render: %s", out)
	}
}
