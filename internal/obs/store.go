package obs

import (
	"sort"
	"sync"
	"time"

	"cloudmonatt/internal/fifo"
)

// DefaultStoreCapacity bounds the in-memory span store when callers pass 0.
const DefaultStoreCapacity = 8192

// Store is a bounded, drop-oldest queue of completed spans shared by every
// entity in the in-process cloud. Queries reassemble traces on demand;
// nothing is indexed ahead of time because the store is small and the
// operator surface reads it rarely compared to how often spans land.
type Store struct {
	mu      sync.Mutex
	spans   fifo.Queue[Span]
	dropped uint64
	total   uint64
}

// NewStore creates a store holding at most capacity completed spans
// (DefaultStoreCapacity when capacity <= 0).
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultStoreCapacity
	}
	return &Store{spans: fifo.New[Span](capacity)}
}

func (st *Store) add(sp Span) {
	st.mu.Lock()
	if _, evicted := st.spans.Push(sp); evicted {
		st.dropped++
	}
	st.total++
	st.mu.Unlock()
}

// Len returns the number of spans currently held.
func (st *Store) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.spans.Len()
}

// Dropped returns how many spans were evicted to stay within capacity.
func (st *Store) Dropped() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.dropped
}

// Total returns how many spans were ever recorded.
func (st *Store) Total() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.total
}

// snapshot copies the held spans oldest-first.
func (st *Store) snapshot() []Span {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.spans.AppendTo(nil)
}

// Spans returns every held span belonging to the trace, oldest-first.
func (st *Store) Spans(trace string) []Span {
	var out []Span
	for _, sp := range st.snapshot() {
		if sp.Trace == trace {
			out = append(out, sp)
		}
	}
	return out
}

// Trace is an assembled view of one trace: its spans plus roll-up fields
// derived from the root span.
type Trace struct {
	ID       string        `json:"id"`
	Vid      string        `json:"vid,omitempty"`
	Prop     string        `json:"prop,omitempty"`
	Name     string        `json:"name"`
	Outcome  string        `json:"outcome"`
	Start    time.Duration `json:"start_ns"`
	End      time.Duration `json:"end_ns"`
	Complete bool          `json:"complete"`
	Spans    []Span        `json:"spans"`
}

// TraceFilter narrows Traces; zero fields match everything.
type TraceFilter struct {
	Vid          string // match traces whose root (or any span) carries this VM id
	CompleteOnly bool   // only traces whose root span has ended
	Limit        int    // keep at most this many, newest first (0 = all)
}

// Traces groups held spans by trace ID and returns assembled traces,
// newest root first. A trace is complete when its root span (Parent == "")
// has been recorded; spans of still-open roots show up once the root ends.
func (st *Store) Traces(f TraceFilter) []Trace {
	byTrace := make(map[string][]Span)
	order := make([]string, 0, 16) // trace IDs in first-seen (oldest) order
	for _, sp := range st.snapshot() {
		if _, ok := byTrace[sp.Trace]; !ok {
			order = append(order, sp.Trace)
		}
		byTrace[sp.Trace] = append(byTrace[sp.Trace], sp)
	}
	out := make([]Trace, 0, len(order))
	for _, id := range order {
		spans := byTrace[id]
		tr := Trace{ID: id, Spans: spans}
		for i := range spans {
			sp := &spans[i]
			if tr.Vid == "" && sp.Vid != "" {
				tr.Vid, tr.Prop = sp.Vid, sp.Prop
			}
			if sp.Parent == "" {
				tr.Complete = true
				tr.Name = sp.Name
				tr.Outcome = sp.Outcome
				tr.Start, tr.End = sp.Start, sp.End
				if sp.Vid != "" {
					// The root span's tags beat whichever child landed first.
					tr.Vid, tr.Prop = sp.Vid, sp.Prop
				}
			}
		}
		if !tr.Complete {
			// Roll up bounds from whatever has landed so far.
			for i := range spans {
				if i == 0 || spans[i].Start < tr.Start {
					tr.Start = spans[i].Start
				}
				if spans[i].End > tr.End {
					tr.End = spans[i].End
				}
			}
		}
		if f.Vid != "" && tr.Vid != f.Vid {
			continue
		}
		if f.CompleteOnly && !tr.Complete {
			continue
		}
		out = append(out, tr)
	}
	// Newest root first: sort by start time descending, stable on the
	// first-seen order so equal virtual timestamps keep insertion order.
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start > out[j].Start })
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[:f.Limit]
	}
	return out
}
