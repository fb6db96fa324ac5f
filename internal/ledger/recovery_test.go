package ledger

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fillLedger writes n entries, cycling through every entry kind, to a fresh
// on-disk ledger and returns the directory and the committed entries. The
// entries depend only on n.
func fillLedger(t testing.TB, n int, segBytes int64) (string, []Entry) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "ledger")
	l, err := Open(Options{Dir: dir, MaxSegmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		var trace string
		if i%2 == 0 {
			trace = fmt.Sprintf("%016x", i)
		}
		e, err := l.Append(Entry{
			At:      time.Duration(i) * time.Millisecond,
			Kind:    kinds[i%len(kinds)],
			Vid:     fmt.Sprintf("vm-%04d", i),
			Prop:    "runtime-integrity",
			Trace:   trace,
			Payload: probe{N: uint64(i)}.AppendWire(nil),
		})
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, e)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, entries
}

func lastSegment(t *testing.T, dir string) (string, int64) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var name string
	for _, e := range ents {
		if isSegName(e.Name()) {
			name = e.Name() // sorted ascending: keep the last
		}
	}
	if name == "" {
		t.Fatal("no segments on disk")
	}
	st, err := os.Stat(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, name), st.Size()
}

// TestRecoveryTruncatesTornTail simulates a kill during append: the last
// frame is half-written. Reopening must keep the longest valid prefix and
// the chain must verify.
func TestRecoveryTruncatesTornTail(t *testing.T) {
	const n = 12
	dir, entries := fillLedger(t, n, 1<<20)
	seg, size := lastSegment(t, dir)

	// Tear the tail: chop off the second half of the final frame.
	lastFrame := int64(frameHeader + frameSize(&entries[n-1]))
	if err := os.Truncate(seg, size-lastFrame/2); err != nil {
		t.Fatal(err)
	}

	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	seq, hash := l.Head()
	if seq != n-1 || hash != entries[n-2].Hash {
		t.Fatalf("recovered head %d, want %d", seq, n-1)
	}
	if got, err := l.Verify(); err != nil || got != n-1 {
		t.Fatalf("post-recovery Verify = %d, %v", got, err)
	}
	// The ledger accepts appends again and they chain from the kept prefix.
	e, err := l.Append(Entry{Kind: KindRemediation, Vid: "vm-new"})
	if err != nil || e.Seq != n || e.PrevHash != entries[n-2].Hash {
		t.Fatalf("post-recovery append %+v, %v", e, err)
	}
	if _, err := l.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryCorruptTailByte corrupts a byte inside the final frame (not
// a clean truncation). Recovery must still cut back to the longest valid
// prefix.
func TestRecoveryCorruptTailByte(t *testing.T) {
	const n = 8
	dir, entries := fillLedger(t, n, 1<<20)
	seg, size := lastSegment(t, dir)

	f, err := os.OpenFile(seg, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the last frame's fields.
	lastFrame := int64(frameHeader + frameSize(&entries[n-1]))
	off := size - lastFrame + frameHeader + 20
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if seq, _ := l.Head(); seq != n-1 {
		t.Fatalf("recovered head %d, want %d", seq, n-1)
	}
	if got, err := l.Verify(); err != nil || got != n-1 {
		t.Fatalf("post-recovery Verify = %d, %v", got, err)
	}
}

// TestRecoveryMidChainCorruptionDropsSuffix corrupts an entry in a sealed
// (non-final) segment: everything after it can no longer chain, so
// recovery keeps only the prefix before the corruption and removes the
// unverifiable later segments.
func TestRecoveryMidChainCorruptionDropsSuffix(t *testing.T) {
	const n = 30
	dir, _ := fillLedger(t, n, 256) // tiny segments: several rolls
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range ents {
		if isSegName(e.Name()) {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) < 3 {
		t.Fatalf("want ≥3 segments, got %v", segs)
	}
	// Corrupt the first byte of the second segment's first frame body.
	target := filepath.Join(dir, segs[1])
	f, err := os.OpenFile(target, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], int64(segHeaderLen+frameHeader)); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x01
	if _, err := f.WriteAt(b[:], int64(segHeaderLen+frameHeader)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	seq, _ := l.Head()
	if seq == 0 || seq >= n {
		t.Fatalf("recovered head %d, want a proper prefix of %d", seq, n)
	}
	if got, err := l.Verify(); err != nil || got != int(seq) {
		t.Fatalf("post-recovery Verify = %d, %v (head %d)", got, err, seq)
	}
	// The corrupt and later segments are gone from disk.
	left, _ := os.ReadDir(dir)
	for _, e := range left {
		if e.Name() == segs[1] || e.Name() == segs[2] {
			t.Fatalf("unverifiable segment %s still present", e.Name())
		}
	}
}

// jsonEraSegment is a segment as the ledger wrote it before segments had a
// header and payloads were binenc: an issuance and an appraisal, each
// payload the JSON of its record.
var jsonEraSegment = filepath.Join("testdata", "json-era", "seg-0000000000000001.log")

// TestOpenRefusesOtherSegmentFormats: a JSON-era segment, and a segment
// whose header names another format version, are refused by name in
// either mode, and a read-write open leaves them as they were instead of
// truncating them away as torn.
func TestOpenRefusesOtherSegmentFormats(t *testing.T) {
	jsonEra, err := os.ReadFile(jsonEraSegment)
	if err != nil {
		t.Fatal(err)
	}
	current, _ := fillLedger(t, 2, 1<<20)
	seg, _ := lastSegment(t, current)
	future, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	future[segHeaderLen-1]++
	for _, row := range []struct {
		name, detail string
		seg          []byte
	}{
		{"json-era", "unversioned", jsonEra},
		{"future-version", fmt.Sprintf("format version %d", segVersion+1), future},
	} {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, segName(1))
			if err := os.WriteFile(path, row.seg, 0o644); err != nil {
				t.Fatal(err)
			}
			for _, readOnly := range []bool{true, false} {
				l, err := Open(Options{Dir: dir, ReadOnly: readOnly})
				if err == nil {
					l.Close()
				}
				if !errors.Is(err, ErrSegmentFormat) || !strings.Contains(err.Error(), row.detail) {
					t.Errorf("Open(ReadOnly: %v) = %v; want ErrSegmentFormat saying %q", readOnly, err, row.detail)
				}
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, row.seg) {
				t.Fatalf("the refused segment changed on disk (%v)", err)
			}
		})
	}
}

// TestAuditRejectsTornLedger: the read-only auditor must refuse a torn
// tail rather than silently repairing it.
func TestAuditRejectsTornLedger(t *testing.T) {
	dir, _ := fillLedger(t, 6, 1<<20)
	seg, size := lastSegment(t, dir)
	if err := os.Truncate(seg, size-10); err != nil {
		t.Fatal(err)
	}
	if _, err := Audit(dir); err == nil {
		t.Fatal("audit accepted a torn ledger")
	}
	// A writing reopen repairs it; the auditor is then satisfied.
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if res, err := Audit(dir); err != nil || res.HeadSeq != 5 {
		t.Fatalf("audit after repair = %+v, %v", res, err)
	}
}

// TestOpenRefusesAMissingFirstSegment: a ledger whose first segment is
// gone no longer holds the chain's start. Either mode refuses it, and a
// read-write open leaves every remaining segment as it was instead of
// reading the first of them as torn and deleting them all.
func TestOpenRefusesAMissingFirstSegment(t *testing.T) {
	dir, _ := fillLedger(t, 30, 256)
	if err := os.Remove(filepath.Join(dir, segName(1))); err != nil {
		t.Fatal(err)
	}
	before := make(map[string][]byte)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if before[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	if len(before) < 3 {
		t.Fatalf("want ≥3 remaining segments, got %d", len(before))
	}
	for _, readOnly := range []bool{true, false} {
		l, err := Open(Options{Dir: dir, ReadOnly: readOnly})
		if err == nil {
			l.Close()
		}
		if err == nil || !strings.Contains(err.Error(), segName(1)) {
			t.Errorf("Open(ReadOnly: %v) = %v; want a refusal naming %s", readOnly, err, segName(1))
		}
	}
	for name, want := range before {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, want) {
			t.Errorf("segment %s changed on disk (%v)", name, err)
		}
	}
}
