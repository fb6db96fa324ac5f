package ledger

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// The ledger every FuzzLedgerRecover input is judged against: fillLedger's
// entries in segments of at most fuzzSegBytes, so several rolls.
const (
	fuzzEntries  = 9
	fuzzSegBytes = 256
)

// packSegments frames segment contents as one fuzz input: each segment is
// a u32 length and its bytes.
func packSegments(segs [][]byte) []byte {
	var out []byte
	for _, s := range segs {
		out = binary.BigEndian.AppendUint32(out, uint32(len(s)))
		out = append(out, s...)
	}
	return out
}

// unpackSegments is packSegments' inverse for an arbitrary input: a length
// running past the end takes what is left, and at most max segments are
// read.
func unpackSegments(in []byte, max int) [][]byte {
	var segs [][]byte
	for len(in) >= 4 && len(segs) < max {
		n := min(int(binary.BigEndian.Uint32(in)), len(in)-4)
		in = in[4:]
		segs = append(segs, in[:n])
		in = in[n:]
	}
	return segs
}

// FuzzLedgerRecover hands torn and mutated segment bytes to the recovery
// scan (open → scanSegment). Whatever the bytes, a read-write open either
// keeps a prefix of the original chain that verifies and takes a further
// append, or refuses a segment of another format (ErrSegmentFormat)
// exactly when a read-only open does; otherwise a read-only open either
// refuses or keeps the same entries. The seeds committed under
// testdata/fuzz are the variants below of the original ledger, and the
// JSON-era segment of testdata/json-era; regenerate them with
// REGEN_GOLDEN=1 after changing fillLedger or the segment format.
func FuzzLedgerRecover(f *testing.F) {
	dir, orig := fillLedger(f, fuzzEntries, fuzzSegBytes)
	var names []string
	var segs [][]byte
	ents, err := os.ReadDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range ents {
		if !isSegName(e.Name()) {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		names, segs = append(names, e.Name()), append(segs, b)
	}
	if len(segs) < 3 {
		f.Fatalf("want ≥3 segments, got %d", len(segs))
	}

	if os.Getenv("REGEN_GOLDEN") != "" {
		jsonEra, err := os.ReadFile(jsonEraSegment)
		if err != nil {
			f.Fatal(err)
		}
		last := len(segs) - 1
		flipped := append([]byte(nil), segs[1]...)
		flipped[len(flipped)/2] ^= 0x10
		seeds := map[string][]byte{
			"intact":          packSegments(segs),
			"torn-tail":       packSegments(append(segs[:last:last], segs[last][:len(segs[last])-7])),
			"flipped-middle":  packSegments([][]byte{segs[0], flipped, segs[2]}),
			"middle-missing":  packSegments([][]byte{segs[0], segs[2]}),
			"first-truncated": packSegments([][]byte{segs[0][:segHeaderLen+frameHeader+3]}),
			"torn-header":     packSegments([][]byte{segs[0][:segHeaderLen-5]}),
			"unframed-second": append(packSegments(segs[:1]), segs[1]...),
			"no-segments":     nil,
			"empty-first":     packSegments(append([][]byte{{}}, segs...)),
			"json-era":        packSegments([][]byte{jsonEra}),
		}
		corpus := filepath.Join("testdata", "fuzz", "FuzzLedgerRecover")
		if err := os.MkdirAll(corpus, 0o755); err != nil {
			f.Fatal(err)
		}
		for name, in := range seeds {
			if err := os.WriteFile(filepath.Join(corpus, name), []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", in)), 0o644); err != nil {
				f.Fatal(err)
			}
		}
	}

	f.Fuzz(func(t *testing.T, in []byte) { checkRecovery(t, names, orig, in) })
}

// checkRecovery opens the segments packed in in, read-only and then
// read-write, and checks what each kept against orig.
func checkRecovery(t *testing.T, names []string, orig []Entry, in []byte) {
	st := newMemStore()
	for i, b := range unpackSegments(in, len(names)) {
		seg, err := st.Create(names[i])
		if err != nil {
			t.Fatal(err)
		}
		seg.Write(b) // a memSeg write cannot fail
	}

	// Read-only first: it must not repair, so the bytes it scans are the
	// ones the read-write open then recovers from.
	var roKept []Entry
	ro, roErr := open(Options{ReadOnly: true}, st)
	if roErr == nil {
		roKept = keptEntries(t, ro, orig)
	}

	l, err := open(Options{MaxSegmentBytes: 1 << 20}, st)
	if errors.Is(err, ErrSegmentFormat) != errors.Is(roErr, ErrSegmentFormat) {
		t.Fatalf("read-write open: %v; read-only open: %v", err, roErr)
	}
	if errors.Is(err, ErrSegmentFormat) {
		return
	}
	if err != nil {
		t.Fatalf("read-write open: %v", err)
	}
	defer l.Close()
	kept := keptEntries(t, l, orig)
	if roErr == nil && !reflect.DeepEqual(roKept, kept) {
		t.Fatalf("read-only open kept %d entries, read-write open %d", len(roKept), len(kept))
	}

	e, err := l.Append(Entry{Kind: KindRemediation, Vid: "vm-new"})
	if err != nil || e.Seq != uint64(len(kept))+1 {
		t.Fatalf("append after recovery: seq %d, %v; want seq %d", e.Seq, err, len(kept)+1)
	}
	if n, err := l.Verify(); err != nil || n != len(kept)+1 {
		t.Fatalf("Verify after the append = %d, %v; want %d", n, err, len(kept)+1)
	}
}

// keptEntries verifies what l kept and checks each entry against the
// original at its seq.
func keptEntries(t *testing.T, l *Ledger, orig []Entry) []Entry {
	t.Helper()
	n, err := l.Verify()
	if err != nil {
		t.Fatalf("Verify after open: %v", err)
	}
	if n > len(orig) {
		t.Fatalf("open kept %d entries from a ledger of %d", n, len(orig))
	}
	kept := make([]Entry, n)
	for i := range kept {
		if kept[i], err = l.Entry(uint64(i + 1)); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(kept[i], orig[i]) {
			t.Fatalf("kept entry %d = %+v, original %+v", i+1, kept[i], orig[i])
		}
	}
	return kept
}
