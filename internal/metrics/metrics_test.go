package metrics

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary[time.Duration]
	if sn := s.Snapshot(); sn.Count != 0 || sn.Mean() != 0 || sn.Quantile(0.5) != 0 {
		t.Fatal("zero-value summary not empty")
	}
	s.Observe(10 * time.Millisecond)
	s.Observe(20 * time.Millisecond)
	s.Observe(30 * time.Millisecond)
	sn := s.Snapshot()
	if sn.Count != 3 {
		t.Fatalf("Count = %d", sn.Count)
	}
	if sn.Mean() != float64(20*time.Millisecond) {
		t.Fatalf("Mean = %v", sn.Mean())
	}
	if sn.Min != 10*time.Millisecond || sn.Max != 30*time.Millisecond {
		t.Fatalf("Min/Max = %v/%v", sn.Min, sn.Max)
	}
	if q := sn.Quantile(0.5); q != 20*time.Millisecond {
		t.Fatalf("p50 = %v", q)
	}
	if q := sn.Quantile(0); q != 10*time.Millisecond {
		t.Fatalf("p0 = %v", q)
	}
	if q := sn.Quantile(1); q != 30*time.Millisecond {
		t.Fatalf("p100 = %v", q)
	}
}

// TestQuantileTable pins the interpolated quantiles for known inputs. The
// old nearest-rank truncation returned p95=95ms and p99=99ms for 1..100
// (rank always rounded down); interpolation lands between the neighbors.
func TestQuantileTable(t *testing.T) {
	oneTo := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(i+1) * time.Millisecond
		}
		return out
	}
	cases := []struct {
		name    string
		samples []time.Duration
		q       float64
		want    time.Duration
	}{
		{"p50 of 1..100", oneTo(100), 0.50, 50500 * time.Microsecond},
		{"p95 of 1..100", oneTo(100), 0.95, 95050 * time.Microsecond},
		{"p99 of 1..100", oneTo(100), 0.99, 99010 * time.Microsecond},
		{"p50 of 1..3", oneTo(3), 0.50, 2 * time.Millisecond},
		{"p75 of 1..2", oneTo(2), 0.75, 1750 * time.Microsecond},
		{"p99 of 1..10", oneTo(10), 0.99, 9910 * time.Microsecond},
		{"p0 clamps low", oneTo(10), -1, time.Millisecond},
		{"p100 clamps high", oneTo(10), 2, 10 * time.Millisecond},
		{"single sample", oneTo(1), 0.95, time.Millisecond},
	}
	for _, tc := range cases {
		var s Summary[time.Duration]
		for _, d := range tc.samples {
			s.Observe(d)
		}
		if got := s.Snapshot().Quantile(tc.q); got != tc.want {
			t.Errorf("%s: Quantile(%v) = %v, want %v", tc.name, tc.q, got, tc.want)
		}
	}
}

// TestIntQuantileTable pins integer-summary quantiles: interpolated, then
// rounded to the nearest integer.
func TestIntQuantileTable(t *testing.T) {
	var s Summary[int64]
	for i := int64(1); i <= 100; i++ {
		s.Observe(i)
	}
	for _, tc := range []struct {
		q    float64
		want int64
	}{
		{0.50, 51}, // pos 49.5 → 50.5 rounds to 51
		{0.95, 95}, // pos 94.05 → 95.05 rounds to 95
		{0.99, 99}, // pos 98.01 → 99.01 rounds to 99
		{0, 1},
		{1, 100},
	} {
		if got := s.Snapshot().Quantile(tc.q); got != tc.want {
			t.Errorf("Summary[int64].Quantile(%v) = %d, want %d", tc.q, got, tc.want)
		}
	}
	var empty Summary[int64]
	if empty.Snapshot().Quantile(0.5) != 0 {
		t.Error("empty Summary[int64] quantile not 0")
	}
}

func TestSummaryBounded(t *testing.T) {
	var s Summary[time.Duration]
	for i := 0; i < 3*maxSamples; i++ {
		s.Observe(time.Duration(i))
	}
	sn := s.Snapshot()
	if sn.Count != uint64(3*maxSamples) {
		t.Fatalf("Count = %d", sn.Count)
	}
	s.mu.Lock()
	n := len(s.samples)
	s.mu.Unlock()
	if n > maxSamples {
		t.Fatalf("samples grew to %d", n)
	}
	if sn.Max != time.Duration(3*maxSamples-1) {
		t.Fatalf("Max lost: %v", sn.Max)
	}
}

func TestQuickQuantileMonotone(t *testing.T) {
	f := func(ms []uint16) bool {
		var s Summary[time.Duration]
		for _, m := range ms {
			s.Observe(time.Duration(m) * time.Microsecond)
		}
		sn := s.Snapshot()
		return sn.Quantile(0.1) <= sn.Quantile(0.5) &&
			sn.Quantile(0.5) <= sn.Quantile(0.9) &&
			sn.Min <= sn.Quantile(0.5) && sn.Quantile(0.5) <= sn.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryConcurrent(t *testing.T) {
	var s Summary[time.Duration]
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				s.Observe(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if n := s.Snapshot().Count; n != 4000 {
		t.Fatalf("lost observations: %d", n)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Summary("b").Observe(time.Second)
	r.Summary("a").Observe(time.Second)
	if r.Summary("a") != r.Summary("a") {
		t.Fatal("Summary not idempotent")
	}
	sums := r.Snapshot().Summaries
	if len(sums) != 2 || sums[0].Name != "a" || sums[1].Name != "b" {
		t.Fatalf("Summaries = %+v", sums)
	}
	if out := r.Render(); !strings.Contains(out, "a") || !strings.Contains(out, "n=1") {
		t.Fatalf("Render: %s", out)
	}
}
