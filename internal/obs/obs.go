// Package obs provides the per-request observability layer the paper
// delegates to OpenStack Ceilometer (§7): distributed tracing of every
// attestation across the Fig. 3 protocol chain, and the operator HTTP
// surface (cmd/monatt-cloud's -admin-addr) that exposes traces, metrics
// and health.
//
// A trace is minted at the customer-facing API — deterministically, from
// the request nonce, so simulated runs reproduce bit-for-bit (no wall
// clock, no global RNG). The trace context (trace ID + parent span ID)
// rides the rpc request envelope and the wire message headers across all
// four entities; each entity records spans (stage, entity, virtual-clock
// start/end, outcome, fault-tolerance annotations) into a shared bounded
// in-memory Store. In a real multi-machine deployment each entity would
// own a store and a collector would join them; the in-process cloud shares
// one, exactly like the evidence ledger.
package obs

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SpanContext is the propagated trace context: which trace a request
// belongs to and which span is its parent. The zero value means "not
// traced" (Trace == "").
type SpanContext struct {
	Trace string
	Span  string
}

// Traced reports whether the context names a trace.
func (sc SpanContext) Traced() bool { return sc.Trace != "" }

// MintTrace derives a trace ID from seed bytes (the customer's request
// nonce N1): deterministic under the seeded nonce machinery, unique per
// request, and wall-clock free.
func MintTrace(seed []byte) string {
	var in [64]byte
	sum := sha256.Sum256(append(append(in[:0], "monatt-trace\x00"...), seed...))
	var out [16]byte
	hex.Encode(out[:], sum[:8])
	return string(out[:])
}

// Annotation is one key=value note on a span (retry attempts, breaker
// trips, degraded serves, periodic-engine outcomes).
type Annotation struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one completed unit of work inside a trace. Start and End are
// virtual-clock times.
type Span struct {
	Trace   string        `json:"trace"`
	ID      string        `json:"id"`
	Parent  string        `json:"parent,omitempty"`
	Entity  string        `json:"entity"`
	Name    string        `json:"name"`
	Vid     string        `json:"vid,omitempty"`
	Prop    string        `json:"prop,omitempty"`
	Start   time.Duration `json:"start_ns"`
	End     time.Duration `json:"end_ns"`
	Outcome string        `json:"outcome"`
	Notes   []Annotation  `json:"notes,omitempty"`
}

// Duration is the span's virtual-time extent.
func (s *Span) Duration() time.Duration { return s.End - s.Start }

// Tracer mints spans for one entity. A nil Tracer is valid and records
// nothing, so entities assembled without observability pay no branches at
// call sites.
type Tracer struct {
	store  *Store
	entity string
	now    func() time.Duration

	mu  sync.Mutex
	seq uint64 // the last span number handed out
	ids string // the rendered IDs after seq, up to the end of their block
}

// idBlock is how many span IDs a Tracer renders into one string at a time.
const idBlock = 32

// NewTracer creates a tracer recording into store under the entity name.
// It returns nil when store is nil (tracing disabled).
func NewTracer(store *Store, entity string, now func() time.Duration) *Tracer {
	if store == nil {
		return nil
	}
	return &Tracer{store: store, entity: entity, now: now}
}

// Entity returns the entity name, or "" for a nil tracer.
func (t *Tracer) Entity() string {
	if t == nil {
		return ""
	}
	return t.entity
}

// Start opens a span under parent. When parent does not name a trace, the
// span becomes the root of a fresh trace whose ID is derived from the
// entity name and a per-tracer sequence number — deterministic given call
// order, which the single-threaded simulation paths guarantee. A nil
// tracer returns a nil span; all ActiveSpan methods tolerate nil.
func (t *Tracer) Start(parent SpanContext, name string) *ActiveSpan {
	if t == nil {
		return nil
	}
	sp := &ActiveSpan{tracer: t}
	sp.span = Span{
		Trace:  parent.Trace,
		ID:     t.nextID(),
		Parent: parent.Span,
		Entity: t.entity,
		Name:   name,
		Start:  t.now(),
	}
	if sp.span.Trace == "" {
		sp.span.Trace = MintTrace([]byte(sp.span.ID))
		sp.span.Parent = ""
	}
	return sp
}

// nextID returns the next span ID, "<entity>#<seq>". IDs are rendered
// idBlock at a time into one string, and each is a substring of it.
func (t *Tracer) nextID() string {
	var num [20]byte
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	if t.ids == "" {
		var b strings.Builder
		b.Grow(idBlock * (len(t.entity) + 1 + len(strconv.AppendUint(num[:0], t.seq+idBlock-1, 10))))
		for s := t.seq; s < t.seq+idBlock; s++ {
			b.WriteString(t.entity)
			b.WriteByte('#')
			b.Write(strconv.AppendUint(num[:0], s, 10))
		}
		t.ids = b.String()
	}
	n := len(t.entity) + 1 + len(strconv.AppendUint(num[:0], t.seq, 10))
	id := t.ids[:n]
	t.ids = t.ids[n:]
	return id
}

// ActiveSpan is an open span. It is safe for concurrent annotation; End
// publishes it to the store exactly once.
type ActiveSpan struct {
	mu     sync.Mutex
	tracer *Tracer
	span   Span
	ended  bool
}

// Context returns the propagation context naming this span as parent.
func (s *ActiveSpan) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.span.Trace, Span: s.span.ID}
}

// SetVM tags the span with the VM and property it concerns.
func (s *ActiveSpan) SetVM(vid, prop string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.span.Vid, s.span.Prop = vid, prop
	s.mu.Unlock()
}

// Annotate appends a key=value note.
func (s *ActiveSpan) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.span.Notes == nil {
		s.span.Notes = make([]Annotation, 0, 2) // spans carry one or two notes
	}
	s.span.Notes = append(s.span.Notes, Annotation{Key: key, Value: value})
	s.mu.Unlock()
}

// Child opens a new span under this one, in the same tracer.
func (s *ActiveSpan) Child(name string) *ActiveSpan {
	if s == nil {
		return nil
	}
	return s.tracer.Start(s.Context(), name)
}

// End closes the span with the given outcome ("" means "ok") and commits
// it to the store. Second and later Ends are no-ops.
func (s *ActiveSpan) End(outcome string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	if outcome == "" {
		outcome = "ok"
	}
	s.span.Outcome = outcome
	s.span.End = s.tracer.now()
	sp := s.span
	s.mu.Unlock()
	s.tracer.store.add(sp)
}

// EndErr is End with an error: nil ends "ok", non-nil ends with the error
// text.
func (s *ActiveSpan) EndErr(err error) {
	if err != nil {
		s.End("error: " + err.Error())
		return
	}
	s.End("")
}

// --- context propagation (rpc attempt spans) ---

type ctxKey struct{}

// ContextWith returns ctx carrying the span; the rpc client uses it to
// record per-attempt child spans and to stamp the trace context into the
// request envelope.
func ContextWith(ctx context.Context, sp *ActiveSpan) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sp)
}

// FromContext returns the span carried by ctx, or nil.
func FromContext(ctx context.Context) *ActiveSpan {
	sp, _ := ctx.Value(ctxKey{}).(*ActiveSpan)
	return sp
}
