package ledger

// Cursor streams the committed chain in sequence order, from entry 1. It
// is the replay primitive crash recovery is built on: the controller walks
// every entry once, folding intents and decisions back into its in-memory
// state, holding one entry at a time where Query collects every match.
//
// A cursor reads committed state only; entries appended after the cursor
// was positioned are returned as the walk reaches them (each Next re-reads
// the current head).
type Cursor struct {
	l    *Ledger
	next uint64
}

// Cursor returns a cursor positioned at entry 1.
func (l *Ledger) Cursor() *Cursor {
	return &Cursor{l: l, next: 1}
}

// Next returns the next committed entry. ok is false when the cursor has
// reached the head; a later Next may return more if the chain has grown.
func (c *Cursor) Next() (Entry, bool, error) {
	c.l.mu.Lock()
	head := c.l.headSeq
	c.l.mu.Unlock()
	if c.next > head {
		return Entry{}, false, nil
	}
	e, err := c.l.Entry(c.next)
	if err != nil {
		return Entry{}, false, err
	}
	c.next++
	return e, true, nil
}

// Seq reports the sequence number the next call to Next will read.
func (c *Cursor) Seq() uint64 { return c.next }
