package ledger

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"cloudmonatt/internal/binenc"
)

// TestParseKind: every kind parses to itself, and a near miss is refused
// with the seven names.
func TestParseKind(t *testing.T) {
	for _, k := range kinds {
		if got, err := ParseKind(string(k)); err != nil || got != k {
			t.Errorf("ParseKind(%q) = %q, %v", k, got, err)
		}
	}
	_, err := ParseKind("remediations")
	if err == nil {
		t.Fatal("ParseKind accepted remediations")
	}
	for _, k := range kinds {
		if !strings.Contains(err.Error(), string(k)) {
			t.Errorf("error %q does not name %s", err, k)
		}
	}
}

// tagProbe leads probe's encoding: a tag no record type uses.
const tagProbe = 0x7f

// probe is a record type in the shape of the real ones, for the tests of
// this package, which imports none of them.
type probe struct {
	N    uint64
	Note string
}

func (p probe) AppendWire(b []byte) []byte {
	b = binenc.AppendHeader(b, tagProbe)
	b = binenc.AppendUint64(b, p.N)
	return binenc.AppendString(b, p.Note)
}

func (p *probe) DecodeWire(data []byte) error {
	rd := binenc.NewReader(data)
	rd.Header(tagProbe)
	*p = probe{}
	p.N = rd.Uint64()
	p.Note = rd.String()
	return Finish(&rd, "probe")
}

// TestRecordDecodeRoundTrip: a recorded value is stored as its AppendWire
// bytes and decodes back into its type; a payload the type cannot wholly
// read (another tag, a trailing byte, a truncation, a JSON-era payload) is
// an error naming the entry; and a nil ledger records nothing.
func TestRecordDecodeRoundTrip(t *testing.T) {
	if err := Record((*Ledger)(nil), Entry{Kind: KindLaunch}, probe{N: 1}); err != nil {
		t.Fatalf("Record on a nil ledger: %v", err)
	}
	l := mustOpen(t, Options{})
	want := probe{N: 7, Note: "placed"}
	if err := Record(l, Entry{Kind: KindLaunch}, want); err != nil {
		t.Fatal(err)
	}
	enc := want.AppendWire(nil)
	retagged := append([]byte{binenc.Magic, binenc.Version, tagProbe + 1}, enc[3:]...)
	for _, payload := range [][]byte{retagged, append(enc[:len(enc):len(enc)], 0), enc[:len(enc)-1], []byte(`{"n":8}`)} {
		if _, err := l.Append(Entry{Kind: KindLaunch, Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	es, err := l.Query(Filter{Kind: KindLaunch})
	if err != nil {
		t.Fatal(err)
	}
	var got probe
	if err := es[0].Decode(&got); err != nil || got != want || !bytes.Equal(es[0].Payload, enc) || es[0].Tag() != tagProbe {
		t.Fatalf("Decode(%x) = %+v, %v (tag %d)", es[0].Payload, got, err, es[0].Tag())
	}
	for _, e := range es[1:] {
		err := e.Decode(&got)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("launch entry %d:", e.Seq)) {
			t.Errorf("Decode(%x) = %v, want an error naming entry %d", e.Payload, err, e.Seq)
		}
	}
	if tag := es[len(es)-1].Tag(); tag != 0 {
		t.Errorf("a JSON payload reads as tag %d, want 0", tag)
	}
}
