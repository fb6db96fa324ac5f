package ledger

import (
	"fmt"

	"cloudmonatt/internal/binenc"
)

// Record tags: the binenc tag that leads each ledger record type's
// encoding, so a payload names its own type. They sit in internal/wire's
// tag space above its messages (1-23), so no wire message reads as a
// record nor a record as a message. KindDegraded has two record types,
// told apart by tag. DESIGN.md section 6 lists who writes each.
const (
	TagAppraisalRecord    = 32 // attestsrv.AppraisalRecord
	TagLaunchRecord       = 33 // controller.LaunchRecord
	TagRemediationRecord  = 34 // controller.RemediationRecord
	TagIntentRecord       = 35 // controller.IntentRecord
	TagStaleServeRecord   = 36 // controller.StaleServeRecord
	TagPeriodicLossRecord = 37 // controller.PeriodicLossRecord
	TagIssuanceRecord     = 38 // pca.IssuanceRecord
	TagFaultRecord        = 39 // rpc.FaultRecord
)

// Appender is implemented by every ledger record type (declared beside
// the kind's one writer): AppendWire appends the record's binenc encoding,
// led by its record tag, to b.
type Appender interface {
	AppendWire(b []byte) []byte
}

// Decoder is implemented by a pointer to every ledger record type:
// DecodeWire accepts exactly the bytes AppendWire produces, and nothing
// after them.
type Decoder interface {
	DecodeWire(data []byte) error
}

// Finish closes a record decoder: nil only when the cursor consumed the
// whole input without error, otherwise the error under the record's name.
func Finish(rd *binenc.Reader, what string) error {
	if err := rd.Done(); err != nil {
		return fmt.Errorf("decoding %s: %w", what, err)
	}
	return nil
}

// Record encodes rec as e's payload and appends e. On a nil ledger it
// records nothing. Best-effort writers ignore the error.
//
// Record is generic, not a method taking an Appender, so that rec reaches
// AppendWire unboxed: each record type is its own instantiation, and the
// encoding goes straight into a buffer that travels with the append's
// reused waiter. A steady-state Record allocates nothing.
func Record[R Appender](l *Ledger, e Entry, rec R) error {
	if l == nil {
		return nil
	}
	w := l.waiter()
	w.payload = rec.AppendWire(w.payload[:0])
	e.Payload = w.payload
	_, err := l.submit(w, e)
	return err
}

// Decode strictly decodes e's payload into rec, a pointer to the writer's
// record type. Another record type's tag, a truncated body or a trailing
// byte is an error naming the entry, never a zero field.
func (e *Entry) Decode(rec Decoder) error {
	if err := rec.DecodeWire(e.Payload); err != nil {
		return fmt.Errorf("ledger: %s entry %d: %w", e.Kind, e.Seq, err)
	}
	return nil
}

// Tag returns the record tag e's payload is led by, or 0 when the payload
// does not start with a binenc header.
func (e *Entry) Tag() byte {
	if len(e.Payload) < 3 || e.Payload[0] != binenc.Magic || e.Payload[1] != binenc.Version {
		return 0
	}
	return e.Payload[2]
}
