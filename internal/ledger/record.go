package ledger

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Record encodes v, a value of the kind's record type (declared beside the
// kind's one writer), as e's payload and appends e. On a nil ledger it
// records nothing. Best-effort writers ignore the error.
func (l *Ledger) Record(e Entry, v any) error {
	if l == nil {
		return nil
	}
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("ledger: encoding a %s payload: %w", e.Kind, err)
	}
	e.Payload = data
	_, err = l.Append(e)
	return err
}

// Decode decodes e's payload into v, a pointer to the writer's record type.
// A field the type lacks or a value of the wrong type is an error naming
// the entry, never a zero field.
func (e *Entry) Decode(v any) error {
	dec := json.NewDecoder(bytes.NewReader(e.Payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("ledger: %s entry %d: %w", e.Kind, e.Seq, err)
	}
	return nil
}
