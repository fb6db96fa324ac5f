// Package metrics provides the timing instrumentation the paper obtains
// from OpenStack Ceilometer (§7): bounded duration summaries with
// percentiles, grouped in a registry. The Attestation Server records every
// appraisal's virtual-time cost per property; benches, the /metrics
// exporter and operators read the summaries.
package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// maxSamples bounds a summary's memory; once full, Algorithm R reservoir
// sampling keeps every observation equally likely to be retained.
const maxSamples = 4096

// reservoirSeed seeds each summary's private PRNG. A fixed seed keeps the
// retained sample set reproducible run-to-run — the same property the
// deterministic simulation demands of every other random draw — while
// still giving each observation the uniform maxSamples/count retention
// probability Algorithm R guarantees.
const reservoirSeed = 0x6d6f6e6174745253 // "monattRS"

// Summary accumulates duration observations.
type Summary struct {
	mu      sync.Mutex
	samples []time.Duration
	count   uint64
	sum     time.Duration
	min     time.Duration
	max     time.Duration
	rng     *rand.Rand
}

// Observe records one duration.
func (s *Summary) Observe(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.count++
	s.sum += d
	if s.count == 1 || d < s.min {
		s.min = d
	}
	if d > s.max {
		s.max = d
	}
	if len(s.samples) < maxSamples {
		s.samples = append(s.samples, d)
		return
	}
	// Algorithm R: the t-th observation replaces a random reservoir slot
	// with probability maxSamples/t, so every observation — not just the
	// most recent window — is retained with equal probability. (The old
	// `samples[count%maxSamples] = d` deterministic ring silently reduced
	// the "reservoir" to a sliding window of the last 4096 observations.)
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(reservoirSeed))
	}
	if j := s.rng.Int63n(int64(s.count)); j < maxSamples {
		s.samples[j] = d
	}
}

// SummarySnapshot is a consistent point-in-time copy of a Summary, taken
// under one lock acquisition so count/sum/min/max/samples all describe the
// same observation set.
type SummarySnapshot struct {
	Count   uint64
	Sum     time.Duration
	Min     time.Duration
	Max     time.Duration
	Samples []time.Duration // sorted ascending
}

// Snapshot copies the summary's state under a single lock acquisition. It
// is the one way to read a summary: separate reads of count, mean and
// quantiles would let a concurrent Observe land between them, producing
// torn lines where n and mean describe different populations.
func (s *Summary) Snapshot() SummarySnapshot {
	s.mu.Lock()
	snap := SummarySnapshot{
		Count:   s.count,
		Sum:     s.sum,
		Min:     s.min,
		Max:     s.max,
		Samples: append([]time.Duration(nil), s.samples...),
	}
	s.mu.Unlock()
	sort.Slice(snap.Samples, func(i, j int) bool { return snap.Samples[i] < snap.Samples[j] })
	return snap
}

// Mean returns the snapshot's average observation.
func (sn SummarySnapshot) Mean() time.Duration {
	if sn.Count == 0 {
		return 0
	}
	return sn.Sum / time.Duration(sn.Count)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of the retained samples,
// linearly interpolated between the two nearest order statistics.
func (sn SummarySnapshot) Quantile(q float64) time.Duration {
	if len(sn.Samples) == 0 {
		return 0
	}
	return time.Duration(interpolate(q, len(sn.Samples), func(i int) float64 { return float64(sn.Samples[i]) }) + 0.5)
}

// String renders the summary compactly from one consistent snapshot.
func (s *Summary) String() string {
	sn := s.Snapshot()
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v min=%v max=%v",
		sn.Count, sn.Mean().Round(time.Millisecond),
		sn.Quantile(0.5).Round(time.Millisecond), sn.Quantile(0.95).Round(time.Millisecond),
		sn.Min.Round(time.Millisecond), sn.Max.Round(time.Millisecond))
}

// IntSummary accumulates dimensionless integer observations (batch sizes,
// queue depths) with the same bounded-reservoir scheme as Summary.
type IntSummary struct {
	mu      sync.Mutex
	samples []int64
	count   uint64
	sum     int64
	min     int64
	max     int64
	rng     *rand.Rand
}

// Observe records one value.
func (s *IntSummary) Observe(v int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.count++
	s.sum += v
	if s.count == 1 || v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	if len(s.samples) < maxSamples {
		s.samples = append(s.samples, v)
		return
	}
	// Algorithm R; see Summary.Observe.
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(reservoirSeed))
	}
	if j := s.rng.Int63n(int64(s.count)); j < maxSamples {
		s.samples[j] = v
	}
}

// IntSummarySnapshot is a consistent point-in-time copy of an IntSummary.
type IntSummarySnapshot struct {
	Count   uint64
	Sum     int64
	Min     int64
	Max     int64
	Samples []int64 // sorted ascending
}

// Snapshot copies the summary's state under a single lock acquisition.
func (s *IntSummary) Snapshot() IntSummarySnapshot {
	s.mu.Lock()
	snap := IntSummarySnapshot{
		Count:   s.count,
		Sum:     s.sum,
		Min:     s.min,
		Max:     s.max,
		Samples: append([]int64(nil), s.samples...),
	}
	s.mu.Unlock()
	sort.Slice(snap.Samples, func(i, j int) bool { return snap.Samples[i] < snap.Samples[j] })
	return snap
}

// Mean returns the snapshot's average observation.
func (sn IntSummarySnapshot) Mean() float64 {
	if sn.Count == 0 {
		return 0
	}
	return float64(sn.Sum) / float64(sn.Count)
}

// Quantile returns the q-quantile of the retained samples, linearly
// interpolated and rounded to the nearest integer.
func (sn IntSummarySnapshot) Quantile(q float64) int64 {
	if len(sn.Samples) == 0 {
		return 0
	}
	return int64(math.Round(interpolate(q, len(sn.Samples), func(i int) float64 { return float64(sn.Samples[i]) })))
}

// interpolate computes the q-quantile of n sorted values (read through at)
// by linear interpolation between the two nearest order statistics; q is
// clamped to [0, 1].
func interpolate(q float64, n int, at func(int) float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hi >= n {
		hi = n - 1
	}
	if lo == hi {
		return at(lo)
	}
	frac := pos - float64(lo)
	return at(lo) + frac*(at(hi)-at(lo))
}

// String renders the summary compactly from one consistent snapshot.
func (s *IntSummary) String() string {
	sn := s.Snapshot()
	return fmt.Sprintf("n=%d mean=%.1f p50=%d p95=%d min=%d max=%d",
		sn.Count, sn.Mean(), sn.Quantile(0.5), sn.Quantile(0.95), sn.Min, sn.Max)
}

// Counter is a monotonically increasing event count (retries, breaker
// trips, stale reports served). Lock-free: the hot paths (every RPC
// attempt, every nonce admission) only need an atomic add.
type Counter struct {
	n atomic.Int64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) { c.n.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// String renders the counter.
func (c *Counter) String() string { return fmt.Sprintf("n=%d", c.Value()) }

// Registry groups named summaries.
type Registry struct {
	mu           sync.Mutex
	summaries    map[string]*Summary
	intSummaries map[string]*IntSummary
	counters     map[string]*Counter
}

// NewRegistry allocates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		summaries:    make(map[string]*Summary),
		intSummaries: make(map[string]*IntSummary),
		counters:     make(map[string]*Counter),
	}
}

// Summary returns (creating if needed) the named summary.
func (r *Registry) Summary(name string) *Summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.summaries[name]
	if !ok {
		s = &Summary{}
		r.summaries[name] = s
	}
	return s
}

// IntSummary returns (creating if needed) the named integer summary.
func (r *Registry) IntSummary(name string) *IntSummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.intSummaries[name]
	if !ok {
		s = &IntSummary{}
		r.intSummaries[name] = s
	}
	return s
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// CounterNames lists the registered counters in sorted order.
func (r *Registry) CounterNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.counters))
	for n := range r.counters {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Names lists the registered duration summaries in sorted order.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.summaries))
	for n := range r.summaries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// IntNames lists the registered integer summaries in sorted order.
func (r *Registry) IntNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.intSummaries))
	for n := range r.intSummaries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// RegistrySnapshot is a point-in-time copy of every instrument in a
// registry, each instrument internally consistent. Names are sorted.
type RegistrySnapshot struct {
	Summaries    []NamedSummary
	IntSummaries []NamedIntSummary
	Counters     []NamedCounter
}

// NamedSummary pairs a summary snapshot with its registry name.
type NamedSummary struct {
	Name string
	SummarySnapshot
}

// NamedIntSummary pairs an integer summary snapshot with its registry name.
type NamedIntSummary struct {
	Name string
	IntSummarySnapshot
}

// NamedCounter pairs a counter value with its registry name.
type NamedCounter struct {
	Name  string
	Value int64
}

// Snapshot captures every registered instrument. Each instrument snapshot
// is taken under that instrument's lock, so each exported line is
// self-consistent (the cross-instrument view is best-effort, as with any
// scrape-based exporter).
func (r *Registry) Snapshot() RegistrySnapshot {
	var snap RegistrySnapshot
	for _, n := range r.Names() {
		snap.Summaries = append(snap.Summaries, NamedSummary{Name: n, SummarySnapshot: r.Summary(n).Snapshot()})
	}
	for _, n := range r.IntNames() {
		snap.IntSummaries = append(snap.IntSummaries, NamedIntSummary{Name: n, IntSummarySnapshot: r.IntSummary(n).Snapshot()})
	}
	for _, n := range r.CounterNames() {
		snap.Counters = append(snap.Counters, NamedCounter{Name: n, Value: r.Counter(n).Value()})
	}
	return snap
}

// Render prints every instrument from one registry snapshot.
func (r *Registry) Render() string {
	snap := r.Snapshot()
	var b strings.Builder
	for _, s := range snap.Summaries {
		fmt.Fprintf(&b, "%-40s n=%d mean=%v p50=%v p95=%v min=%v max=%v\n",
			s.Name, s.Count, s.Mean().Round(time.Millisecond),
			s.Quantile(0.5).Round(time.Millisecond), s.Quantile(0.95).Round(time.Millisecond),
			s.Min.Round(time.Millisecond), s.Max.Round(time.Millisecond))
	}
	for _, s := range snap.IntSummaries {
		fmt.Fprintf(&b, "%-40s n=%d mean=%.1f p50=%d p95=%d min=%d max=%d\n",
			s.Name, s.Count, s.Mean(), s.Quantile(0.5), s.Quantile(0.95), s.Min, s.Max)
	}
	for _, c := range snap.Counters {
		fmt.Fprintf(&b, "%-40s n=%d\n", c.Name, c.Value)
	}
	return b.String()
}
