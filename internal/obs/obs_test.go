package obs

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeClock is a hand-advanced virtual clock for tracer tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (c *fakeClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

func TestMintTraceDeterministic(t *testing.T) {
	a := MintTrace([]byte("nonce-1"))
	b := MintTrace([]byte("nonce-1"))
	c := MintTrace([]byte("nonce-2"))
	if a != b {
		t.Fatalf("same seed minted different traces: %s vs %s", a, b)
	}
	if a == c {
		t.Fatalf("different seeds minted the same trace: %s", a)
	}
	if len(a) != 16 {
		t.Fatalf("trace ID %q: want 16 hex chars", a)
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	tr := NewTracer(nil, "x", nil)
	if tr != nil {
		t.Fatal("NewTracer with nil store should return nil")
	}
	if got := tr.Entity(); got != "" {
		t.Fatalf("nil tracer entity = %q", got)
	}
	sp := tr.Start(SpanContext{}, "work")
	if sp != nil {
		t.Fatal("nil tracer should start nil spans")
	}
	// Every ActiveSpan method must tolerate nil.
	sp.SetVM("vm-1", "p")
	sp.Annotate("k", "v")
	child := sp.Child("sub")
	if child != nil {
		t.Fatal("nil span should produce nil children")
	}
	sp.End("")
	sp.EndErr(fmt.Errorf("boom"))
	if sc := sp.Context(); sc.Traced() {
		t.Fatalf("nil span context = %+v", sc)
	}
	// Context propagation round-trips nil without panicking.
	ctx := ContextWith(context.Background(), sp)
	if got := FromContext(ctx); got != nil {
		t.Fatal("nil span should not be stored in context")
	}
}

func TestSpanLifecycleAndPropagation(t *testing.T) {
	clock := &fakeClock{}
	st := NewStore(16)
	tr := NewTracer(st, "controller", clock.Now)

	root := tr.Start(SpanContext{Trace: "t1", Span: "parent9"}, "attest")
	root.SetVM("vm-7", "runtime-integrity")
	clock.advance(10 * time.Millisecond)
	child := root.Child("verify")
	clock.advance(5 * time.Millisecond)
	child.End("")
	root.Annotate("degraded", "stale-report")
	clock.advance(time.Millisecond)
	root.End("degraded")
	root.End("ignored") // second End must not publish again

	spans := st.Spans("t1")
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2: %+v", len(spans), spans)
	}
	c, r := spans[0], spans[1] // oldest-first: child ended before root
	if c.Name != "verify" || c.Parent != r.ID {
		t.Fatalf("child span %+v not parented to root %q", c, r.ID)
	}
	if r.Parent != "parent9" || r.Trace != "t1" {
		t.Fatalf("root span did not keep propagated context: %+v", r)
	}
	if r.Vid != "vm-7" || r.Prop != "runtime-integrity" {
		t.Fatalf("root span lost VM tags: %+v", r)
	}
	if r.Outcome != "degraded" || c.Outcome != "ok" {
		t.Fatalf("outcomes = root %q, child %q", r.Outcome, c.Outcome)
	}
	if c.Start < r.Start || c.End > r.End {
		t.Fatalf("child [%v,%v] not nested in root [%v,%v]", c.Start, c.End, r.Start, r.End)
	}
	if len(r.Notes) != 1 || r.Notes[0].Key != "degraded" {
		t.Fatalf("root notes = %+v", r.Notes)
	}
}

func TestTracerMintsRootTraceWithoutParent(t *testing.T) {
	clock := &fakeClock{}
	st := NewStore(16)
	tr := NewTracer(st, "engine", clock.Now)
	a := tr.Start(SpanContext{}, "periodic")
	b := tr.Start(SpanContext{}, "periodic")
	if !a.Context().Traced() || !b.Context().Traced() {
		t.Fatal("parentless spans should mint fresh traces")
	}
	if a.Context().Trace == b.Context().Trace {
		t.Fatal("two parentless spans should land in distinct traces")
	}
	a.End("")
	b.End("")
	if got := len(st.Traces(TraceFilter{CompleteOnly: true})); got != 2 {
		t.Fatalf("got %d complete traces, want 2", got)
	}
}

func TestStoreDropsOldest(t *testing.T) {
	clock := &fakeClock{}
	st := NewStore(4)
	tr := NewTracer(st, "e", clock.Now)
	for i := 0; i < 10; i++ {
		sp := tr.Start(SpanContext{Trace: fmt.Sprintf("t%d", i)}, "w")
		clock.advance(time.Millisecond)
		sp.End("")
	}
	if st.Len() != 4 {
		t.Fatalf("Len = %d, want capacity 4", st.Len())
	}
	if st.Dropped() != 6 || st.Total() != 10 {
		t.Fatalf("Dropped=%d Total=%d, want 6/10", st.Dropped(), st.Total())
	}
	if got := st.Spans("t0"); len(got) != 0 {
		t.Fatalf("oldest span survived eviction: %+v", got)
	}
	if got := st.Spans("t9"); len(got) != 1 {
		t.Fatalf("newest span missing: %+v", got)
	}
}

// TestStoreDefaultCapacity: a store made with no capacity holds
// DefaultStoreCapacity spans, dropping the oldest past it.
func TestStoreDefaultCapacity(t *testing.T) {
	for _, c := range []int{0, -5} {
		st := NewStore(c)
		for i := 0; i <= DefaultStoreCapacity; i++ {
			st.add(Span{Trace: "t"})
		}
		if st.Len() != DefaultStoreCapacity || st.Dropped() != 1 {
			t.Fatalf("NewStore(%d) after %d adds: Len=%d Dropped=%d, want %d/1", c, DefaultStoreCapacity+1, st.Len(), st.Dropped(), DefaultStoreCapacity)
		}
	}
}

func TestTracesFilterAndOrder(t *testing.T) {
	clock := &fakeClock{}
	st := NewStore(32)
	tr := NewTracer(st, "api", clock.Now)

	// Trace A: complete, vm-1.
	a := tr.Start(SpanContext{}, "api:attest")
	a.SetVM("vm-1", "p")
	clock.advance(time.Millisecond)
	a.End("")

	// Trace B: complete, vm-2, starts later than A.
	clock.advance(time.Millisecond)
	b := tr.Start(SpanContext{}, "api:attest")
	b.SetVM("vm-2", "p")
	clock.advance(time.Millisecond)
	b.End("")

	// Trace C: child recorded but root never ended — incomplete.
	c := tr.Start(SpanContext{}, "api:attest")
	c.SetVM("vm-3", "p")
	cc := c.Child("inner")
	cc.End("")

	all := st.Traces(TraceFilter{})
	if len(all) != 3 {
		t.Fatalf("got %d traces, want 3", len(all))
	}
	complete := st.Traces(TraceFilter{CompleteOnly: true})
	if len(complete) != 2 {
		t.Fatalf("got %d complete traces, want 2", len(complete))
	}
	// Newest root first.
	if complete[0].Vid != "vm-2" || complete[1].Vid != "vm-1" {
		t.Fatalf("order = %s, %s; want vm-2 then vm-1", complete[0].Vid, complete[1].Vid)
	}
	byVM := st.Traces(TraceFilter{Vid: "vm-1"})
	if len(byVM) != 1 || byVM[0].Vid != "vm-1" {
		t.Fatalf("vm filter returned %+v", byVM)
	}
	limited := st.Traces(TraceFilter{CompleteOnly: true, Limit: 1})
	if len(limited) != 1 {
		t.Fatalf("limit ignored: got %d traces", len(limited))
	}
	if limited[0].Vid != "vm-2" {
		t.Fatalf("limit should keep the newest trace, got %s", limited[0].Vid)
	}
}

// TestStoreConcurrency hammers the store from concurrent recorders and
// readers; run with -race.
func TestStoreConcurrency(t *testing.T) {
	clock := &fakeClock{}
	st := NewStore(64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tr := NewTracer(st, fmt.Sprintf("e%d", g), clock.Now)
			for i := 0; i < 200; i++ {
				sp := tr.Start(SpanContext{}, "w")
				sp.Annotate("i", fmt.Sprint(i))
				sp.Child("c").End("")
				sp.End("")
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				st.Traces(TraceFilter{CompleteOnly: true, Limit: 10})
				st.Len()
				clock.advance(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if st.Total() != 4*200*2 {
		t.Fatalf("Total = %d, want %d", st.Total(), 4*200*2)
	}
}

func TestSpanIDsAcrossBlocks(t *testing.T) {
	clock := &fakeClock{}
	tr := NewTracer(NewStore(16), "e", clock.Now)
	for i := 1; i <= 70; i++ { // crosses two idBlock boundaries
		if got, want := tr.Start(SpanContext{}, "w").Context().Span, fmt.Sprintf("e#%d", i); got != want {
			t.Fatalf("span %d has ID %q, want %q", i, got, want)
		}
	}
}

func TestStartAllocsOne(t *testing.T) {
	clock := &fakeClock{}
	tr := NewTracer(NewStore(16), "controller", clock.Now)
	parent := SpanContext{Trace: "t1", Span: "p"}
	if n := testing.AllocsPerRun(10*idBlock, func() { tr.Start(parent, "w") }); n != 1 {
		t.Fatalf("Start allocates %v times amortized, want 1 (the span)", n)
	}
}

func TestTwoAnnotationsAllocOnce(t *testing.T) {
	clock := &fakeClock{}
	tr := NewTracer(NewStore(16), "controller", clock.Now)
	parent := SpanContext{Trace: "t1", Span: "p"}
	n := testing.AllocsPerRun(10*idBlock, func() {
		sp := tr.Start(parent, "w")
		sp.Annotate("peer", "cloud-server-1")
		sp.Annotate("attempt", "1")
	})
	if n != 2 {
		t.Fatalf("a span with two notes allocates %v times, want 2 (the span and its notes)", n)
	}
}
