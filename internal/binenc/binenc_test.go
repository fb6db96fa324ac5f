package binenc

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var b []byte
	b = AppendUint8(b, 0xC1)
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = AppendUint32(b, 0xDEADBEEF)
	b = AppendUint64(b, 1<<63|42)
	b = AppendBytes(b, []byte("payload"))
	b = AppendBytes(b, nil)
	b = AppendString(b, "name")

	r := NewReader(b)
	if got := r.Uint8(); got != 0xC1 {
		t.Fatalf("Uint8 = %#x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("bools did not round-trip")
	}
	if got := r.Uint32(); got != 0xDEADBEEF {
		t.Fatalf("Uint32 = %#x", got)
	}
	if got := r.Uint64(); got != 1<<63|42 {
		t.Fatalf("Uint64 = %#x", got)
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte("payload")) {
		t.Fatalf("Bytes = %q", got)
	}
	if got := r.Bytes(); got != nil {
		t.Fatalf("empty field decoded to %v, want nil", got)
	}
	if got := r.String(); got != "name" {
		t.Fatalf("String = %q", got)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

func TestTruncatedAndTrailing(t *testing.T) {
	r := NewReader([]byte{0, 0, 0, 9, 'x'})
	if got := r.Bytes(); got != nil || r.Err() == nil {
		t.Fatalf("truncated field: got %v err %v", got, r.Err())
	}
	if !errors.Is(r.Done(), ErrTruncated) {
		t.Fatalf("Done after truncation: %v", r.Done())
	}

	r = NewReader([]byte{7, 8})
	r.Uint8()
	if err := r.Done(); !errors.Is(err, ErrTrailing) {
		t.Fatalf("trailing bytes not rejected: %v", err)
	}
}

func TestBoolRejectsNonCanonical(t *testing.T) {
	r := NewReader([]byte{2})
	r.Bool()
	if !errors.Is(r.Err(), ErrNonCanonical) {
		t.Fatalf("Bool(2) err = %v", r.Err())
	}
}

func TestErrorsStick(t *testing.T) {
	r := NewReader(nil)
	r.Uint64()
	if r.Err() == nil {
		t.Fatal("no error on empty read")
	}
	// Every later read is a no-op returning zero values.
	if r.Uint32() != 0 || r.Bytes() != nil || r.String() != "" || r.Uint8() != 0 {
		t.Fatal("reads after error returned non-zero values")
	}
}

func TestCountBoundsAllocation(t *testing.T) {
	// A count claiming 2^31 elements over a 4-byte remainder must fail
	// instead of sizing a slice from attacker input.
	var b []byte
	b = AppendUint32(b, 1<<31)
	b = append(b, 1, 2, 3, 4)
	r := NewReader(b)
	if n := r.Count(8); n != 0 || r.Err() == nil {
		t.Fatalf("hostile count admitted: n=%d err=%v", n, r.Err())
	}

	b = AppendUint32(nil, 2)
	b = append(b, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)
	r = NewReader(b)
	if n := r.Count(8); n != 2 || r.Err() != nil {
		t.Fatalf("honest count rejected: n=%d err=%v", n, r.Err())
	}
}

func TestFixed(t *testing.T) {
	var dst [4]byte
	r := NewReader([]byte{1, 2, 3, 4})
	r.Fixed(dst[:])
	if dst != [4]byte{1, 2, 3, 4} || r.Done() != nil {
		t.Fatalf("Fixed: %v %v", dst, r.Done())
	}
	r = NewReader([]byte{1, 2})
	r.Fixed(dst[:])
	if r.Err() == nil {
		t.Fatal("short Fixed read not rejected")
	}
}

// decodeString reads one String field from b.
func decodeString(t testing.TB, b []byte) string {
	r := NewReader(b)
	s := r.String()
	if err := r.Done(); err != nil {
		t.Fatalf("decode %q: %v", b, err)
	}
	return s
}

func TestStringRecurringFieldAllocFree(t *testing.T) {
	b := AppendString(nil, "vm-0001")
	decodeString(t, b)
	if n := testing.AllocsPerRun(100, func() { decodeString(t, b) }); n != 0 {
		t.Fatalf("a recurring field allocates %v times per decode, want 0", n)
	}
}

func TestStringLongFieldAllocates(t *testing.T) {
	b := AppendString(nil, string(bytes.Repeat([]byte{'x'}, internMaxLen+1)))
	decodeString(t, b)
	if n := testing.AllocsPerRun(100, func() { decodeString(t, b) }); n != 1 {
		t.Fatalf("a %d-byte field allocates %v times per decode, want 1 (it bypasses the table)", internMaxLen+1, n)
	}
}

func TestStringEqualsItsBytes(t *testing.T) {
	// Every length up to past the table's bound, each decoded twice: a
	// miss and then a hit, or two copies past the bound.
	for n := 1; n <= internMaxLen+2; n++ {
		for _, c := range []byte{'a', 'b', 0, 0xff} {
			want := string(bytes.Repeat([]byte{c}, n))
			b := AppendString(nil, want)
			for i := 0; i < 2; i++ {
				if got := decodeString(t, b); got != want {
					t.Fatalf("decoded %q, want %q", got, want)
				}
			}
		}
	}
}

// collidingValues returns n distinct short values that share one slot.
func collidingValues(n int) []string {
	var out []string
	slot := internSlot([]byte("v0"))
	for i := 0; len(out) < n; i++ {
		v := fmt.Sprintf("v%d", i)
		if internSlot([]byte(v)) == slot {
			out = append(out, v)
		}
	}
	return out
}

// TestStringTableConcurrent decodes values that evict each other from one
// slot on several goroutines; run with -race.
func TestStringTableConcurrent(t *testing.T) {
	vals := collidingValues(4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				want := vals[(g+i)%len(vals)]
				r := NewReader(AppendString(nil, want))
				if got := r.String(); got != want {
					t.Errorf("decoded %q, want %q", got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
