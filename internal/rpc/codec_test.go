package rpc

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"cloudmonatt/internal/binenc"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/wire"
)

// TestDecodeOneCodecPerType pins the codec rule: the Go type alone picks
// the codec. Every binary-capable top-level type encodes binary, round-
// trips, and refuses its own gob encoding; every other type travels as gob
// and refuses a body led by the binary magic byte.
func TestDecodeOneCodecPerType(t *testing.T) {
	binary := []struct{ msg, into any }{
		{wire.AttestRequest{Vid: "vm-1", Prop: properties.RuntimeIntegrity}, &wire.AttestRequest{}},
		{wire.PeriodicRequest{Vid: "vm-1", Prop: properties.CPUAvailability, Random: true}, &wire.PeriodicRequest{}},
		{wire.StopPeriodicRequest{Vid: "vm-1", Prop: properties.CPUAvailability}, &wire.StopPeriodicRequest{}},
		{wire.AppraisalRequest{Vid: "vm-1", ServerID: "cloud-server-1", Prop: properties.StartupIntegrity}, &wire.AppraisalRequest{}},
		{wire.MeasureRequest{Vid: "vm-1"}, &wire.MeasureRequest{}},
		{wire.Evidence{Vid: "vm-1", Backend: "tpm"}, &wire.Evidence{}},
		{wire.Report{Vid: "vm-1", ServerID: "cloud-server-1", Sig: []byte{1}}, &wire.Report{}},
		{wire.CustomerReport{Vid: "vm-1", Sig: []byte{2}}, &wire.CustomerReport{}},
		{requestEnvelope{Method: "m", Body: []byte{3}}, &requestEnvelope{}},
		{responseEnvelope{Err: "e", Body: []byte{4}}, &responseEnvelope{}},
	}
	for _, c := range binary {
		enc, err := Encode(c.msg)
		if err != nil || len(enc) == 0 || enc[0] != binenc.Magic {
			t.Fatalf("%T: Encode = %x, %v; want a binary body", c.msg, enc, err)
		}
		if err := Decode(enc, c.into); err != nil {
			t.Fatalf("%T: decoding its own encoding: %v", c.msg, err)
		}
		if re, _ := Encode(c.into); !bytes.Equal(re, enc) {
			t.Fatalf("%T does not round-trip:\n in: %x\nout: %x", c.msg, enc, re)
		}
		var asGob bytes.Buffer
		if err := gob.NewEncoder(&asGob).Encode(c.msg); err != nil {
			t.Fatal(err)
		}
		if err := Decode(asGob.Bytes(), c.into); err == nil {
			t.Fatalf("%T accepted a gob body", c.msg)
		}
	}

	type control struct {
		Vid     string
		Reports []*wire.Report
	}
	msg := control{Vid: "vm-1", Reports: []*wire.Report{{Vid: "vm-1"}}}
	enc, err := Encode(msg)
	if err != nil || enc[0] == binenc.Magic {
		t.Fatalf("control-plane type: Encode = %x, %v; want a gob body", enc, err)
	}
	var got control
	if err := Decode(enc, &got); err != nil || !reflect.DeepEqual(got, msg) {
		t.Fatalf("control-plane type does not round-trip: %+v, %v", got, err)
	}
	led, _ := Encode(wire.Report{Vid: "vm-1"})
	if err := Decode(led, &got); err == nil {
		t.Fatal("control-plane type accepted a magic-led body")
	}
}
