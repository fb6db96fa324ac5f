package ledger

import (
	"fmt"
	"strings"
	"testing"
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

// TestRecordDecodeRoundTrip: a recorded value decodes back into its type;
// a payload the type cannot fully read (a wrong type, a field it lacks, a
// truncation) is an error naming the entry; and a nil ledger records
// nothing.
func TestRecordDecodeRoundTrip(t *testing.T) {
	type probe struct {
		N    int    `json:"n"`
		Note string `json:"note,omitempty"`
	}
	if err := (*Ledger)(nil).Record(Entry{Kind: KindLaunch}, probe{N: 1}); err != nil {
		t.Fatalf("Record on a nil ledger: %v", err)
	}
	l, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Record(Entry{Kind: KindLaunch}, probe{N: 7}); err != nil {
		t.Fatal(err)
	}
	for _, payload := range []string{`{"n":"8"}`, `{"n":8,"extra":"x"}`, `{"n":8`} {
		if _, err := l.Append(Entry{Kind: KindLaunch, Payload: []byte(payload)}); err != nil {
			t.Fatal(err)
		}
	}
	es, err := l.Query(Filter{Kind: KindLaunch})
	if err != nil {
		t.Fatal(err)
	}
	var got probe
	if err := es[0].Decode(&got); err != nil || got != (probe{N: 7}) || string(es[0].Payload) != `{"n":7}` {
		t.Fatalf("Decode(%s) = %+v, %v", es[0].Payload, got, err)
	}
	for _, e := range es[1:] {
		err := e.Decode(&got)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("launch entry %d:", e.Seq)) {
			t.Errorf("Decode(%s) = %v, want an error naming entry %d", e.Payload, err, e.Seq)
		}
	}
}
