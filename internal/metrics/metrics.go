// Package metrics provides the timing instrumentation the paper obtains
// from OpenStack Ceilometer (§7): bounded summaries with percentiles and
// event counters, grouped in a registry. The Attestation Server records
// every appraisal's virtual-time cost per property; benches, the /metrics
// exporter and operators read the summaries.
package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// Summary accumulates observations: Summary[time.Duration] keeps latencies,
// Summary[int64] dimensionless counts (batch sizes, queue depths).
type Summary[T ~int64] struct {
	mu      sync.Mutex
	samples []T
	count   uint64
	sum     T
	min     T
	max     T
	rng     *rand.Rand
}

// Observe records one value.
func (s *Summary[T]) Observe(v T) {
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
	// Algorithm R: the t-th observation replaces a random reservoir slot
	// with probability maxSamples/t, so every observation — not just the
	// most recent window — is retained with equal probability. (The old
	// `samples[count%maxSamples] = v` deterministic ring silently reduced
	// the "reservoir" to a sliding window of the last 4096 observations.)
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(reservoirSeed))
	}
	if j := s.rng.Int63n(int64(s.count)); j < maxSamples {
		s.samples[j] = v
	}
}

// Snapshot is a consistent point-in-time copy of a Summary, taken under one
// lock acquisition so count/sum/min/max/samples all describe the same
// observation set.
type Snapshot[T ~int64] struct {
	Count   uint64
	Sum     T
	Min     T
	Max     T
	Samples []T // sorted ascending
}

// Snapshot copies the summary's state under a single lock acquisition. It
// is the one way to read a summary: separate reads of count, mean and
// quantiles would let a concurrent Observe land between them, producing
// torn lines where n and mean describe different populations.
func (s *Summary[T]) Snapshot() Snapshot[T] {
	s.mu.Lock()
	snap := Snapshot[T]{
		Count:   s.count,
		Sum:     s.sum,
		Min:     s.min,
		Max:     s.max,
		Samples: slices.Clone(s.samples),
	}
	s.mu.Unlock()
	slices.Sort(snap.Samples)
	return snap
}

// Mean returns the snapshot's average observation.
func (sn Snapshot[T]) Mean() float64 {
	if sn.Count == 0 {
		return 0
	}
	return float64(sn.Sum) / float64(sn.Count)
}

// Quantile returns the q-quantile (q clamped to [0, 1]) of the retained
// samples, linearly interpolated between the two nearest order statistics
// and rounded to the nearest unit.
func (sn Snapshot[T]) Quantile(q float64) T {
	n := len(sn.Samples)
	if n == 0 {
		return 0
	}
	pos := min(max(q, 0), 1) * float64(n-1)
	lo := int(pos)
	hi := min(lo+1, n-1)
	at := func(i int) float64 { return float64(sn.Samples[i]) }
	return T(math.Round(at(lo) + (pos-float64(lo))*(at(hi)-at(lo))))
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

// Registry groups named instruments.
type Registry struct {
	mu           sync.Mutex
	summaries    map[string]*Summary[time.Duration]
	intSummaries map[string]*Summary[int64]
	counters     map[string]*Counter
}

// NewRegistry allocates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		summaries:    make(map[string]*Summary[time.Duration]),
		intSummaries: make(map[string]*Summary[int64]),
		counters:     make(map[string]*Counter),
	}
}

// get returns (creating if needed) the instrument named name in m.
func get[I any](r *Registry, m map[string]*I, name string) *I {
	r.mu.Lock()
	defer r.mu.Unlock()
	in, ok := m[name]
	if !ok {
		in = new(I)
		m[name] = in
	}
	return in
}

// Summary returns (creating if needed) the named duration summary.
func (r *Registry) Summary(name string) *Summary[time.Duration] { return get(r, r.summaries, name) }

// IntSummary returns (creating if needed) the named integer summary.
func (r *Registry) IntSummary(name string) *Summary[int64] { return get(r, r.intSummaries, name) }

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter { return get(r, r.counters, name) }

// Named pairs an instrument's reading with its registry name.
type Named[V any] struct {
	Name  string
	Value V
}

// RegistrySnapshot is a point-in-time copy of every instrument in a
// registry, each instrument internally consistent. Names are sorted.
type RegistrySnapshot struct {
	Summaries    []Named[Snapshot[time.Duration]]
	IntSummaries []Named[Snapshot[int64]]
	Counters     []Named[int64]
}

// walk reads every instrument in m in name order. The registry lock covers
// only the listing, so a scrape never holds up an instrument's creation
// while it copies and sorts reservoirs.
func walk[I, V any](r *Registry, m map[string]*I, read func(*I) V) []Named[V] {
	r.mu.Lock()
	ins := make([]Named[*I], 0, len(m))
	for name, in := range m {
		ins = append(ins, Named[*I]{name, in})
	}
	r.mu.Unlock()
	slices.SortFunc(ins, func(a, b Named[*I]) int { return strings.Compare(a.Name, b.Name) })
	out := make([]Named[V], len(ins))
	for i, in := range ins {
		out[i] = Named[V]{in.Name, read(in.Value)}
	}
	return out
}

// Snapshot captures every registered instrument. Each instrument snapshot
// is taken under that instrument's lock, so each exported line is
// self-consistent (the cross-instrument view is best-effort, as with any
// scrape-based exporter).
func (r *Registry) Snapshot() RegistrySnapshot {
	return RegistrySnapshot{
		Summaries:    walk(r, r.summaries, (*Summary[time.Duration]).Snapshot),
		IntSummaries: walk(r, r.intSummaries, (*Summary[int64]).Snapshot),
		Counters:     walk(r, r.counters, (*Counter).Value),
	}
}

// Render prints every instrument from one registry snapshot.
func (r *Registry) Render() string {
	snap := r.Snapshot()
	var b strings.Builder
	for _, s := range snap.Summaries {
		sn := s.Value
		fmt.Fprintf(&b, "%-40s n=%d mean=%v p50=%v p95=%v min=%v max=%v\n",
			s.Name, sn.Count, time.Duration(sn.Mean()).Round(time.Millisecond),
			sn.Quantile(0.5).Round(time.Millisecond), sn.Quantile(0.95).Round(time.Millisecond),
			sn.Min.Round(time.Millisecond), sn.Max.Round(time.Millisecond))
	}
	for _, s := range snap.IntSummaries {
		sn := s.Value
		fmt.Fprintf(&b, "%-40s n=%d mean=%.1f p50=%d p95=%d min=%d max=%d\n",
			s.Name, sn.Count, sn.Mean(), sn.Quantile(0.5), sn.Quantile(0.95), sn.Min, sn.Max)
	}
	for _, c := range snap.Counters {
		fmt.Fprintf(&b, "%-40s n=%d\n", c.Name, c.Value)
	}
	return b.String()
}
