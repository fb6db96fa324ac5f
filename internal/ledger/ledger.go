// Package ledger is the evidence layer behind CloudMonatt's Property
// Certification Module (paper §3.2.3, §3.4): an append-only, hash-chained
// attestation evidence ledger. Every appraisal report, remediation event
// and pCA certificate issuance is recorded as an entry carrying
// H(prevHash ‖ payload), so the full attestation history is provable after
// the fact: any single-bit mutation of a committed entry breaks the chain,
// and an auditor can independently replay it (cmd/monatt-ledger).
//
// Writes go through a group-commit writer: concurrent appenders enqueue
// onto a batch and block; one of them becomes the committer and flushes the
// whole batch with a single serialization + write + fsync, so heavy
// traffic amortizes the durability cost (the classic WAL group commit).
// Storage is segmented and append-only: no entry is ever retired, so the
// chain always replays from entry 1. Recovery after a crash truncates a
// torn tail back to the longest valid prefix. Checkpoints (head seq +
// hash) are ed25519-signable for out-of-band anchoring.
package ledger

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/metrics"
)

// Kind classifies an evidence entry.
type Kind string

// The entry kinds produced across the stack.
const (
	// KindAppraisal is one appraised attestation report (attestsrv).
	KindAppraisal Kind = "appraisal"
	// KindRemediation is one executed Response Module action (controller):
	// termination, suspension, migration, or resume.
	KindRemediation Kind = "remediation"
	// KindLaunch is one launch decision (controller).
	KindLaunch Kind = "launch"
	// KindCertIssue is one pCA attestation-key certificate issuance.
	KindCertIssue Kind = "cert-issue"
	// KindDegraded is one stale report served because the attestation
	// infrastructure was unreachable (controller graceful degradation).
	KindDegraded Kind = "degraded"
	// KindRPCFault is one observed fault-tolerance event on an RPC channel:
	// a retried call or a circuit-breaker transition.
	KindRPCFault Kind = "rpc-fault"
	// KindIntent is one two-phase control-plane intent (controller): a
	// "begin" entry appended before a state-changing operation executes and
	// an "end" entry appended once it completes. A begin without a matching
	// end marks an operation torn by a crash; recovery replays the chain
	// and finishes (or cleans up after) exactly those.
	KindIntent Kind = "intent"
)

// kinds lists every entry kind, in declaration order.
var kinds = []Kind{KindAppraisal, KindRemediation, KindLaunch, KindCertIssue, KindDegraded, KindRPCFault, KindIntent}

// ParseKind resolves an operator's or a frame's entry kind name, allocating
// nothing for a known one. An unknown name comes back as a Kind, with an error.
func ParseKind[S string | []byte](s S) (Kind, error) {
	for _, k := range kinds {
		if string(k) == string(s) {
			return k, nil
		}
	}
	return Kind(s), fmt.Errorf("ledger: unknown entry kind %q (have %v)", s, kinds)
}

// Entry is one committed evidence record. Seq, PrevHash and Hash are
// assigned by the ledger at commit time.
type Entry struct {
	Seq      uint64
	At       time.Duration // virtual time of the recorded event
	Kind     Kind
	Vid      string
	Prop     string
	Trace    string // obs trace ID joining this evidence to its timing spans
	Payload  []byte // the writer's record as Record encodes it; Decode reads it back
	PrevHash [32]byte
	Hash     [32]byte
}

// entryHash computes Hash = H(prevHash ‖ seq ‖ at ‖ kind ‖ vid ‖ prop ‖
// trace ‖ payload) with the domain-separated injective encoding of
// cryptoutil.Hash.
func entryHash(prev [32]byte, seq uint64, at time.Duration, kind Kind, vid, prop, trace string, payload []byte) [32]byte {
	var seqB, atB [8]byte
	binary.BigEndian.PutUint64(seqB[:], seq)
	binary.BigEndian.PutUint64(atB[:], uint64(at))
	return cryptoutil.Hash("ledger-entry", prev[:], seqB[:], atB[:], []byte(kind), []byte(vid), []byte(prop), []byte(trace), payload)
}

// --- on-disk segment format ---
//
// A segment opens with segMagic and one format-version byte, then holds
// frames back to back. Version 2 is the first with the header; its
// payloads are binenc records (record.go). A segment without the header
// was written with JSON payloads, and no build reads it any more: Open
// refuses it with ErrSegmentFormat instead of repairing it away.
//
// Each frame is
//
//	u32 frameLen                (bytes after this field)
//	u64 seq
//	u64 at                      (virtual nanoseconds)
//	u16 len(kind)  ‖ kind
//	u16 len(vid)   ‖ vid
//	u16 len(prop)  ‖ prop
//	u16 len(trace) ‖ trace
//	u32 len(payload) ‖ payload
//	prevHash[32]
//	hash[32]
//
// The trailing hashes make every frame self-authenticating: recovery can
// tell a torn or mutated record from a good one without a separate CRC.

const (
	frameHeader   = 4
	maxSmallField = 1 << 16
	maxPayload    = 1 << 24
)

const (
	segMagic     = "MONATT-LEDGER-SEG"
	segVersion   = 2
	segHeaderLen = len(segMagic) + 1
)

var segHeader = append([]byte(segMagic), segVersion)

// ErrSegmentFormat is returned by Open, in either mode, for a segment this
// build does not read: one from before segments carried a header (JSON
// payloads), or one of another format version. A read-write open refuses
// the ledger rather than truncate such a segment as if it were torn.
var ErrSegmentFormat = errors.New("format not readable by this build")

func frameSize(e *Entry) int {
	return 8 + 8 + 2 + len(e.Kind) + 2 + len(e.Vid) + 2 + len(e.Prop) + 2 + len(e.Trace) + 4 + len(e.Payload) + 32 + 32
}

func appendFrame(buf []byte, e *Entry) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(frameSize(e)))
	buf = binary.BigEndian.AppendUint64(buf, e.Seq)
	buf = binary.BigEndian.AppendUint64(buf, uint64(e.At))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(e.Kind)))
	buf = append(buf, e.Kind...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(e.Vid)))
	buf = append(buf, e.Vid...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(e.Prop)))
	buf = append(buf, e.Prop...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(e.Trace)))
	buf = append(buf, e.Trace...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.Payload)))
	buf = append(buf, e.Payload...)
	buf = append(buf, e.PrevHash[:]...)
	buf = append(buf, e.Hash[:]...)
	return buf
}

// decodeFrame parses one frame body (after the length prefix).
func decodeFrame(body []byte) (Entry, error) {
	var e Entry
	take := func(n int) ([]byte, bool) {
		if len(body) < n {
			return nil, false
		}
		out := body[:n]
		body = body[n:]
		return out, true
	}
	fixed, ok := take(16)
	if !ok {
		return e, errors.New("ledger: short frame")
	}
	e.Seq = binary.BigEndian.Uint64(fixed[:8])
	e.At = time.Duration(binary.BigEndian.Uint64(fixed[8:]))
	str := func() ([]byte, bool) {
		lb, ok := take(2)
		if !ok {
			return nil, false
		}
		return take(int(binary.BigEndian.Uint16(lb)))
	}
	kind, ok1 := str()
	vid, ok2 := str()
	prop, ok3 := str()
	trace, ok6 := str()
	if !ok1 || !ok2 || !ok3 || !ok6 {
		return e, errors.New("ledger: short frame")
	}
	e.Kind, _ = ParseKind(kind) // a kind this build does not know reads back as written
	e.Vid, e.Prop, e.Trace = string(vid), string(prop), string(trace)
	plb, ok := take(4)
	if !ok {
		return e, errors.New("ledger: short frame")
	}
	pl, ok := take(int(binary.BigEndian.Uint32(plb)))
	if !ok {
		return e, errors.New("ledger: short frame")
	}
	if len(pl) > 0 {
		e.Payload = pl[:len(pl):len(pl)] // each caller has read body afresh
	}
	prev, ok4 := take(32)
	h, ok5 := take(32)
	if !ok4 || !ok5 || len(body) != 0 {
		return e, errors.New("ledger: malformed frame")
	}
	copy(e.PrevHash[:], prev)
	copy(e.Hash[:], h)
	return e, nil
}

// --- ledger ---

// maxBatchScratch caps the serialization buffer the committer keeps for the
// next batch, and maxRecordScratch the encoding buffer a waiter keeps for
// its next Record, so one huge payload does not pin its size for good.
const (
	maxBatchScratch  = 1 << 20
	maxRecordScratch = 4 << 10
)

// Options configures a ledger.
type Options struct {
	// Dir is the storage directory. Empty selects an in-process store:
	// fully functional (chaining, recovery semantics, queries) but not
	// durable across the process.
	Dir string
	// ReadOnly opens an existing on-disk ledger for auditing: appends are
	// rejected, and a torn tail is an error, not repaired.
	ReadOnly bool
	// MaxSegmentBytes rolls the active segment when it exceeds this size.
	// Default 1 MiB.
	MaxSegmentBytes int64
	// Now supplies the clock used for append/flush latency measurement.
	// The simulator injects its virtual clock here so latency summaries
	// are reproducible under seeded replay; nil falls back to wall time.
	Now func() time.Time
}

// ErrClosed is returned by operations on a closed ledger.
var ErrClosed = errors.New("ledger: closed")

type segment struct {
	name string
	file segFile
	size int64
}

// loc addresses one committed frame.
type loc struct {
	seg int
	off int64
	n   int32
}

// waiter is one queued append. out, err and done are written by the
// committer under Ledger.mu, and done is what the appender waits for on
// Ledger.cond. Once done is set the committer touches only its batch
// slice, so the appender puts the waiter back on Ledger.free for the next
// append, payload buffer and all.
type waiter struct {
	in      Entry
	payload []byte // Record's encoding of in.Payload, reused append to append
	start   time.Time
	out     Entry
	err     error
	done    bool
}

// Ledger is the append-only hash-chained evidence ledger.
type Ledger struct {
	opts Options
	st   store

	reg       *metrics.Registry
	appendSum *metrics.Summary[time.Duration]
	flushSum  *metrics.Summary[time.Duration]
	batchSum  *metrics.Summary[int64]

	mu         sync.Mutex
	cond       *sync.Cond // signaled when a batch is published and when a commit round finishes
	closed     bool
	committing bool
	queue      []*waiter
	spare      []*waiter // the last batch's array, for the queue after the next
	free       []*waiter // finished appends' waiters, for reuse

	// The committer's scratch, reused batch to batch: only the appender
	// holding the committer role touches it, and both stores copy on Write.
	batchBuf  []byte
	batchLocs []loc

	headSeq  uint64
	headHash [32]byte

	segs []*segment
	locs []loc // locs[i] addresses seq i+1
}

// Open opens (creating or recovering as needed) the ledger described by
// opts. In read-write mode a torn tail left by a crash is truncated back
// to the longest valid prefix before the ledger accepts new appends.
func Open(opts Options) (*Ledger, error) {
	if opts.MaxSegmentBytes <= 0 {
		opts.MaxSegmentBytes = 1 << 20
	}
	var st store
	var err error
	if opts.Dir == "" {
		if opts.ReadOnly {
			return nil, errors.New("ledger: read-only requires a directory")
		}
		st = newMemStore()
	} else {
		st, err = newDirStore(opts.Dir, opts.ReadOnly)
		if err != nil {
			return nil, err
		}
	}
	return open(opts, st)
}

func open(opts Options, st store) (*Ledger, error) {
	reg := metrics.NewRegistry()
	if opts.Now == nil {
		opts.Now = time.Now
	}
	l := &Ledger{
		opts:      opts,
		st:        st,
		reg:       reg,
		appendSum: reg.Summary("ledger/append"),
		flushSum:  reg.Summary("ledger/flush"),
		batchSum:  reg.IntSummary("ledger/batch-size"),
	}
	l.cond = sync.NewCond(&l.mu)

	names, err := st.Segments()
	if err != nil {
		return nil, err
	}
	// The chain starts at entry 1, in the first segment. Without it every
	// later segment would read as torn at its first entry, and a repair
	// would delete them all.
	if len(names) > 0 && names[0] != segName(1) {
		return nil, fmt.Errorf("ledger: first segment is %s, not %s: the chain's start is missing", names[0], segName(1))
	}
	for i, name := range names {
		f, err := st.Open(name)
		if err != nil {
			return nil, err
		}
		seg := &segment{name: name, file: f}
		good, err := l.scanSegment(seg, len(l.segs))
		if err != nil {
			if opts.ReadOnly || errors.Is(err, ErrSegmentFormat) {
				return nil, fmt.Errorf("ledger: segment %s: %w", name, err)
			}
			// Crash recovery: keep the longest valid prefix. Any later
			// segments (which can no longer chain) are dropped first, so an
			// interrupted repair never leaves a gap before a kept one; then
			// the bad suffix of this segment is truncated, or the whole
			// segment dropped when not one frame of it survives.
			for _, later := range names[i+1:] {
				if rerr := st.Remove(later); rerr != nil {
					return nil, rerr
				}
			}
			if good <= int64(segHeaderLen) {
				f.Close()
				if rerr := st.Remove(name); rerr != nil {
					return nil, rerr
				}
			} else {
				if terr := f.Truncate(good); terr != nil {
					return nil, terr
				}
				seg.size = good
				l.segs = append(l.segs, seg)
			}
			return l, nil
		}
		seg.size = good
		l.segs = append(l.segs, seg)
	}
	return l, nil
}

// scanSegment replays one segment's frames, extending the chain state and
// the frame locations. It returns the offset of the first invalid byte
// (== size when the segment is fully valid) and an error describing why
// scanning stopped early, if it did. A segment of another format is
// ErrSegmentFormat; an empty one, created by a writer that died before its
// first batch, holds no entries.
func (l *Ledger) scanSegment(seg *segment, segIdx int) (int64, error) {
	size, err := seg.file.Size()
	if err != nil {
		return 0, err
	}
	if size == 0 {
		return 0, nil
	}
	if err := checkSegHeader(seg.file, size); err != nil {
		return 0, err
	}
	off := int64(segHeaderLen)
	for off < size {
		e, n, err := readFrame(seg.file, off, size)
		if err != nil {
			return off, err
		}
		if e.Seq != l.headSeq+1 {
			return off, fmt.Errorf("seq %d where %d expected", e.Seq, l.headSeq+1)
		}
		if e.PrevHash != l.headHash {
			return off, fmt.Errorf("entry %d does not chain from its predecessor", e.Seq)
		}
		if e.Hash != entryHash(e.PrevHash, e.Seq, e.At, e.Kind, e.Vid, e.Prop, e.Trace, e.Payload) {
			return off, fmt.Errorf("entry %d hash mismatch", e.Seq)
		}
		l.locs = append(l.locs, loc{seg: segIdx, off: off, n: int32(n)})
		l.headSeq, l.headHash = e.Seq, e.Hash
		off += n
	}
	return off, nil
}

// readFrame reads the frame at off of a segment of size bytes, returning it
// and its length with the length prefix.
func readFrame(f segFile, off, size int64) (Entry, int64, error) {
	var hdr [frameHeader]byte
	if size-off < frameHeader {
		return Entry{}, 0, errors.New("torn frame header")
	}
	if n, err := f.ReadAt(hdr[:], off); n < len(hdr) {
		return Entry{}, 0, err
	}
	n := int64(binary.BigEndian.Uint32(hdr[:]))
	if n <= 0 || n > frameHeader+maxPayload || off+frameHeader+n > size {
		return Entry{}, 0, errors.New("torn or oversized frame")
	}
	body := make([]byte, n)
	if k, err := f.ReadAt(body, off+frameHeader); k < len(body) {
		return Entry{}, 0, err
	}
	e, err := decodeFrame(body)
	return e, frameHeader + n, err
}

// checkSegHeader checks that a non-empty segment opens with the current
// header. A torn or mangled header is an ordinary scan error, which a
// read-write open repairs; a segment that opens with a whole, self-hashing
// frame instead predates the header, and one with the magic but another
// version byte was written by another format: both are ErrSegmentFormat.
func checkSegHeader(f segFile, size int64) error {
	hdr := make([]byte, min(size, int64(segHeaderLen)))
	if n, err := f.ReadAt(hdr, 0); n < len(hdr) {
		return err
	}
	switch {
	case string(hdr) == string(segHeader):
		return nil
	case len(hdr) == segHeaderLen && string(hdr[:len(segMagic)]) == segMagic:
		return fmt.Errorf("%w: format version %d, this build reads %d", ErrSegmentFormat, hdr[len(segMagic)], segVersion)
	case len(hdr) < segHeaderLen && string(hdr) == string(segHeader[:len(hdr)]):
		return errors.New("torn segment header")
	}
	if e, _, err := readFrame(f, 0, size); err == nil && e.Hash == entryHash(e.PrevHash, e.Seq, e.At, e.Kind, e.Vid, e.Prop, e.Trace, e.Payload) {
		return fmt.Errorf("%w: unversioned, written before segments had a header (JSON payloads; no migration exists)", ErrSegmentFormat)
	}
	return errors.New("bad segment header")
}

// Metrics returns the registry holding the ledger's summaries.
func (l *Ledger) Metrics() *metrics.Registry { return l.reg }

// Head returns the current chain head (seq, hash).
func (l *Ledger) Head() (uint64, [32]byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.headSeq, l.headHash
}

// Len returns the number of committed entries.
func (l *Ledger) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.locs)
}

// Append durably commits one entry and returns it with Seq/PrevHash/Hash
// assigned. Concurrent appenders are group-committed: all entries queued
// while a flush is in flight are serialized and fsynced together by the
// next committer, so the per-append durability cost is amortized across
// the batch.
func (l *Ledger) Append(e Entry) (Entry, error) {
	return l.submit(l.waiter(), e)
}

// waiter takes a finished append's waiter off the free list, or makes one.
func (l *Ledger) waiter() *waiter {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return new(waiter)
	}
	w := l.free[n-1]
	l.free = l.free[:n-1]
	return w
}

// recycleLocked puts w back on the free list, keeping only its payload
// buffer: the free list holds on to no appender's strings. l.mu is held.
func (l *Ledger) recycleLocked(w *waiter) {
	payload := w.payload[:0]
	if cap(payload) > maxRecordScratch {
		payload = nil
	}
	*w = waiter{payload: payload}
	l.free = append(l.free, w)
}

// check refuses an entry Append cannot commit.
func (l *Ledger) check(e *Entry) error {
	switch {
	case e.Kind == "":
		return errors.New("ledger: entry kind required")
	case len(e.Vid) >= maxSmallField || len(e.Prop) >= maxSmallField || len(string(e.Kind)) >= maxSmallField || len(e.Trace) >= maxSmallField:
		return errors.New("ledger: field too large")
	case len(e.Payload) > maxPayload:
		return errors.New("ledger: payload too large")
	case l.opts.ReadOnly:
		return errors.New("ledger: read-only")
	}
	return nil
}

// submit appends e through w, and recycles w once the append is done.
func (l *Ledger) submit(w *waiter, e Entry) (Entry, error) {
	err := l.check(&e)
	if err == nil {
		w.in, w.start = e, l.opts.Now()
	}
	l.mu.Lock()
	if err == nil && l.closed {
		err = ErrClosed
	}
	if err != nil {
		l.recycleLocked(w)
		l.mu.Unlock()
		return Entry{}, err
	}
	l.queue = append(l.queue, w)
	if l.committing {
		// A committer is active: it (or its successor) will flush us.
		for !w.done {
			l.cond.Wait()
		}
	} else {
		// Become the committer and drain batches until the queue is empty.
		l.committing = true
		for len(l.queue) > 0 {
			batch := l.queue
			l.queue, l.spare = l.spare, nil
			l.mu.Unlock()
			l.commit(batch)
			l.mu.Lock()
			clear(batch)
			l.spare = batch[:0]
		}
		l.committing = false
		l.cond.Broadcast()
	}
	out, start := w.out, w.start
	err = w.err
	l.recycleLocked(w)
	l.mu.Unlock()
	l.appendSum.Observe(l.opts.Now().Sub(start))
	return out, err
}

// commit flushes one batch: a single serialization, write and fsync for
// every queued entry. Only the committer runs here, so chain state reads
// are exclusive; mutations happen back under l.mu.
func (l *Ledger) commit(batch []*waiter) {
	flushStart := l.opts.Now()

	l.mu.Lock()
	seq, prev := l.headSeq, l.headHash
	seg, err := l.activeSegmentLocked(seq + 1)
	segIdx := len(l.segs) - 1 // segments are only appended: the active one stays last
	l.mu.Unlock()
	if err != nil {
		l.finishBatch(batch, err)
		return
	}

	// Serialize the whole batch against the running chain. A new segment's
	// first batch carries its header.
	buf := l.batchBuf[:0]
	if seg.size == 0 {
		buf = append(buf, segHeader...)
	}
	offs := l.batchLocs[:0]
	writeOff := seg.size
	for _, w := range batch {
		e := w.in
		seq++
		e.Seq = seq
		e.PrevHash = prev
		e.Hash = entryHash(prev, e.Seq, e.At, e.Kind, e.Vid, e.Prop, e.Trace, e.Payload)
		prev = e.Hash
		start := len(buf)
		buf = appendFrame(buf, &e)
		offs = append(offs, loc{seg: segIdx, off: writeOff + int64(start), n: int32(len(buf) - start)})
		w.out = e
	}
	if cap(buf) <= maxBatchScratch {
		l.batchBuf = buf
	}
	l.batchLocs = offs

	if _, err := seg.file.Write(buf); err != nil {
		seg.file.Truncate(seg.size)
		l.finishBatch(batch, fmt.Errorf("ledger: write: %w", err))
		return
	}
	if err := seg.file.Sync(); err != nil {
		seg.file.Truncate(seg.size)
		l.finishBatch(batch, fmt.Errorf("ledger: fsync: %w", err))
		return
	}

	// Publish: record the batch's frames, advance the head and wake its
	// appenders.
	l.mu.Lock()
	l.locs = append(l.locs, offs...)
	for _, w := range batch {
		w.done = true
	}
	seg.size += int64(len(buf))
	l.headSeq = seq
	l.headHash = prev
	l.cond.Broadcast()
	l.mu.Unlock()

	l.flushSum.Observe(l.opts.Now().Sub(flushStart))
	l.batchSum.Observe(int64(len(batch)))
}

// finishBatch fails every appender of a batch that was not committed.
func (l *Ledger) finishBatch(batch []*waiter, err error) {
	l.mu.Lock()
	for _, w := range batch {
		w.out, w.err, w.done = Entry{}, err, true
	}
	l.cond.Broadcast()
	l.mu.Unlock()
}

// activeSegmentLocked returns the segment to append to, rolling to a new
// one when the active segment is over the size threshold.
func (l *Ledger) activeSegmentLocked(nextSeq uint64) (*segment, error) {
	if n := len(l.segs); n > 0 && l.segs[n-1].size < l.opts.MaxSegmentBytes {
		return l.segs[n-1], nil
	}
	name := segName(nextSeq)
	f, err := l.st.Create(name)
	if err != nil {
		return nil, err
	}
	seg := &segment{name: name, file: f}
	l.segs = append(l.segs, seg)
	return seg, nil
}

// --- queries ---

// Filter selects entries. Zero fields match everything.
type Filter struct {
	Vid   string
	Kind  Kind
	Prop  string
	Limit int
}

func (f *Filter) match(e *Entry) bool {
	if f.Vid != "" && e.Vid != f.Vid {
		return false
	}
	if f.Kind != "" && e.Kind != f.Kind {
		return false
	}
	return f.Prop == "" || e.Prop == f.Prop
}

// Query returns the committed entries matching f in chain order, stopping
// at f.Limit. It walks the chain from entry 1 to the head as of the call:
// no caller is on a hot path, so the ledger keeps no index beside it.
func (l *Ledger) Query(f Filter) ([]Entry, error) {
	l.mu.Lock()
	head := l.headSeq
	l.mu.Unlock()

	var out []Entry
	for seq := uint64(1); seq <= head; seq++ {
		e, err := l.Entry(seq)
		if err != nil {
			return nil, err
		}
		if !f.match(&e) {
			continue
		}
		out = append(out, e)
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out, nil
}

// Entry reads one committed entry by sequence number.
func (l *Ledger) Entry(seq uint64) (Entry, error) {
	l.mu.Lock()
	if seq == 0 || seq > uint64(len(l.locs)) {
		l.mu.Unlock()
		return Entry{}, fmt.Errorf("ledger: no entry %d", seq)
	}
	lc := l.locs[seq-1]
	file := l.segs[lc.seg].file
	l.mu.Unlock()

	frame := make([]byte, lc.n)
	if n, err := file.ReadAt(frame, lc.off); n < len(frame) {
		return Entry{}, err
	}
	// The length prefix is part of the committed bytes: a mutated prefix is
	// framing corruption even though the hash only covers the fields.
	if binary.BigEndian.Uint32(frame[:frameHeader]) != uint32(lc.n-frameHeader) {
		return Entry{}, fmt.Errorf("ledger: entry %d frame length corrupted", seq)
	}
	return decodeFrame(frame[frameHeader:])
}

// --- verification ---

// Verify replays the whole chain from entry 1, recomputing every entry
// hash and link, and checks the result against the in-memory head. It
// returns the number of entries verified. Any mutation of a committed byte
// — a segment header, payload, metadata, or either hash — fails it.
func (l *Ledger) Verify() (int, error) { return l.Walk(nil) }

// Walk is Verify handing each entry to fn (when non-nil) once its sequence
// number, link and hash have checked out, in chain order: a reader folds
// the chain as it verifies it, holding one entry at a time. An error from
// fn ends the walk and is returned as is. The walk reads the chain up to
// the head as of the call; n counts the entries verified and handed over.
func (l *Ledger) Walk(fn func(Entry) error) (n int, err error) {
	l.mu.Lock()
	headSeq, headHash := l.headSeq, l.headHash
	segs := make([]segment, len(l.segs))
	for i, s := range l.segs {
		segs[i] = *s
	}
	l.mu.Unlock()

	for _, s := range segs {
		if s.size == 0 {
			continue
		}
		if err := checkSegHeader(s.file, s.size); err != nil {
			return 0, fmt.Errorf("ledger: verify: segment %s: %w", s.name, err)
		}
	}

	var prev [32]byte
	for seq := uint64(1); seq <= headSeq; seq++ {
		e, err := l.Entry(seq)
		if err != nil {
			return n, fmt.Errorf("ledger: verify at %d: %w", seq, err)
		}
		if e.Seq != seq {
			return n, fmt.Errorf("ledger: verify: entry %d records seq %d", seq, e.Seq)
		}
		if e.PrevHash != prev {
			return n, fmt.Errorf("ledger: verify: chain broken at %d", seq)
		}
		want := entryHash(prev, e.Seq, e.At, e.Kind, e.Vid, e.Prop, e.Trace, e.Payload)
		if e.Hash != want {
			return n, fmt.Errorf("ledger: verify: hash mismatch at %d", seq)
		}
		if fn != nil {
			if err := fn(e); err != nil {
				return n, err
			}
		}
		prev = e.Hash
		n++
	}
	if prev != headHash {
		return n, errors.New("ledger: verify: head hash mismatch")
	}
	return n, nil
}

// Checkpoint is a signed chain head: anchoring it out of band commits the
// operator to the entire history below it.
type Checkpoint struct {
	Seq    uint64
	Hash   [32]byte
	Signer string
	Sig    []byte
}

func checkpointBody(seq uint64, hash [32]byte, signer string) []byte {
	var seqB [8]byte
	binary.BigEndian.PutUint64(seqB[:], seq)
	sum := cryptoutil.Hash("ledger-checkpoint", seqB[:], hash[:], []byte(signer))
	return sum[:]
}

// Checkpoint signs the current chain head with signer's identity key.
func (l *Ledger) Checkpoint(signer *cryptoutil.Identity) Checkpoint {
	seq, hash := l.Head()
	return Checkpoint{
		Seq:    seq,
		Hash:   hash,
		Signer: signer.Name,
		Sig:    signer.Sign(checkpointBody(seq, hash, signer.Name)),
	}
}

// VerifyCheckpoint checks cp's signature under pub.
func VerifyCheckpoint(cp Checkpoint, pub []byte) error {
	if !cryptoutil.Verify(pub, checkpointBody(cp.Seq, cp.Hash, cp.Signer), cp.Sig) {
		return errors.New("ledger: checkpoint signature invalid")
	}
	return nil
}

// Close waits for in-flight commits and releases the segment files.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.committing {
		l.cond.Wait()
	}
	if l.closed {
		return nil
	}
	l.closed = true
	var first error
	for _, seg := range l.segs {
		if err := seg.file.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
