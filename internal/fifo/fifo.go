// Package fifo provides the one bounded first-in-first-out queue behind
// every "keep the last n" buffer in the program.
package fifo

// Queue holds at most a fixed number of values in arrival order. Pushing
// onto a full queue evicts the oldest value and hands it back, so an owner
// that indexes its values elsewhere (a map of seen keys) can forget it, and
// one that counts its losses can count it. The values live in one ring
// allocated by the first Push; after that only AppendTo allocates. A Queue
// is not safe for concurrent use: its owner's lock guards it.
type Queue[T any] struct {
	buf  []T
	size int
	head int // slot of the oldest value
	n    int // values held
}

// New returns an empty queue that holds at most size (> 0) values.
func New[T any](size int) Queue[T] { return Queue[T]{size: size} }

// slot returns the ring index of the i-th oldest value (0 <= i <= n).
func (q *Queue[T]) slot(i int) int {
	if i += q.head; i >= len(q.buf) {
		i -= len(q.buf)
	}
	return i
}

// Push appends v. On a full queue it evicts the oldest value and returns
// it with ok true.
func (q *Queue[T]) Push(v T) (evicted T, ok bool) {
	if q.buf == nil {
		q.buf = make([]T, q.size)
	}
	if q.n < len(q.buf) {
		q.buf[q.slot(q.n)] = v
		q.n++
		return evicted, false
	}
	evicted, q.buf[q.head] = q.buf[q.head], v
	q.head = q.slot(1)
	return evicted, true
}

// Pop removes and returns the oldest value; ok is false on an empty queue.
func (q *Queue[T]) Pop() (v T, ok bool) {
	if q.n == 0 {
		return v, false
	}
	var zero T
	v, q.buf[q.head] = q.buf[q.head], zero
	q.head = q.slot(1)
	q.n--
	return v, true
}

// Len returns the number of values held.
func (q *Queue[T]) Len() int { return q.n }

// AppendTo appends the held values to dst, oldest first.
func (q *Queue[T]) AppendTo(dst []T) []T {
	if cap(dst)-len(dst) < q.n {
		dst = append(make([]T, 0, len(dst)+q.n), dst...)
	}
	if end := q.head + q.n; end <= len(q.buf) {
		return append(dst, q.buf[q.head:end]...)
	}
	return append(append(dst, q.buf[q.head:]...), q.buf[:q.slot(q.n)]...)
}

// Clear empties the queue and zeroes its slots, so it keeps no value
// reachable; the ring is kept for reuse.
func (q *Queue[T]) Clear() {
	clear(q.buf)
	q.head, q.n = 0, 0
}
