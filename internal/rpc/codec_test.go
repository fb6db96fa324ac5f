package rpc

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"cloudmonatt/internal/binenc"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/wire"
)

// TestDecodeOneCodecPerType pins the codec rule: the Go type alone picks
// the codec, and there is one. Every message type encodes to a body led by
// the binary header, round-trips, and refuses a body that is not led by
// it; nil is the empty body, raw bytes pass through, and a type without
// the AppendWire/DecodeWire pair is an error naming the type. (The
// management messages of the packages that import this one get the same
// table in internal/controller's TestMgmtDecodersRefuseForeignBodies.)
func TestDecodeOneCodecPerType(t *testing.T) {
	messages := []struct{ msg, into any }{
		{wire.AttestRequest{Vid: "vm-1", Prop: properties.RuntimeIntegrity}, &wire.AttestRequest{}},
		{wire.PeriodicRequest{Vid: "vm-1", Prop: properties.CPUAvailability, Random: true}, &wire.PeriodicRequest{}},
		{wire.StopPeriodicRequest{Vid: "vm-1", Prop: properties.CPUAvailability}, &wire.StopPeriodicRequest{}},
		{wire.AppraisalRequest{Vid: "vm-1", ServerID: "cloud-server-1", Prop: properties.StartupIntegrity}, &wire.AppraisalRequest{}},
		{wire.MeasureRequest{Vid: "vm-1"}, &wire.MeasureRequest{}},
		{wire.Evidence{Vid: "vm-1", Backend: "tpm"}, &wire.Evidence{}},
		{wire.Report{Vid: "vm-1", ServerID: "cloud-server-1", Sig: []byte{1}}, &wire.Report{}},
		{wire.CustomerReport{Vid: "vm-1", Sig: []byte{2}}, &wire.CustomerReport{}},
		{wire.VidRequest{Vid: "vm-1"}, &wire.VidRequest{}},
		{wire.VMStatus{Vid: "vm-1", Conditions: []wire.Condition{{Type: "Placed"}}}, &wire.VMStatus{}},
		{wire.CustomerBatch{Vid: "vm-1", Verdicts: []properties.Verdict{{Property: properties.CPUAvailability}}, Sig: []byte{2}}, &wire.CustomerBatch{}},
		{requestEnvelope{Method: "m", Body: []byte{3}}, &requestEnvelope{}},
		{responseEnvelope{Err: "e", Body: []byte{4}}, &responseEnvelope{}},
	}
	for _, c := range messages {
		enc, err := Encode(c.msg)
		if err != nil || len(enc) < 3 || enc[0] != binenc.Magic {
			t.Fatalf("%T: Encode = %x, %v; want a body led by the binary header", c.msg, enc, err)
		}
		if err := Decode(enc, c.into); err != nil {
			t.Fatalf("%T: decoding its own encoding: %v", c.msg, err)
		}
		if re, _ := Encode(c.into); !bytes.Equal(re, enc) {
			t.Fatalf("%T does not round-trip:\n in: %x\nout: %x", c.msg, enc, re)
		}
		for name, body := range map[string][]byte{
			"empty":          nil,
			"gob-led":        append([]byte{0x1f, 0xff, 0x81, 0x03, 0x01, 0x01}, enc[3:]...),
			"no-magic":       enc[1:],
			"future-version": append([]byte{binenc.Magic, binenc.Version + 1, enc[2]}, enc[3:]...),
			"unknown-tag":    append([]byte{binenc.Magic, binenc.Version, 0xEE}, enc[3:]...),
		} {
			if err := Decode(body, c.into); err == nil {
				t.Errorf("%T accepted a %s body: %x", c.msg, name, body)
			}
		}
	}

	type control struct{ Vid string }
	if enc, err := Encode(control{Vid: "vm-1"}); err == nil || !strings.Contains(err.Error(), "rpc.control") {
		t.Errorf("Encode of a type with no codec = %x, %v; want an error naming rpc.control", enc, err)
	}
	led, _ := Encode(wire.Report{Vid: "vm-1"})
	if err := Decode(led, &control{}); err == nil || !strings.Contains(err.Error(), "*rpc.control") {
		t.Errorf("Decode into a type with no codec = %v; want an error naming *rpc.control", err)
	}
	if enc, err := Encode(true); err == nil {
		t.Errorf("Encode(true) = %x; an ack is the empty body", enc)
	}

	if enc, err := Encode(nil); err != nil || len(enc) != 0 {
		t.Errorf("Encode(nil) = %x, %v; want the empty body", enc, err)
	}
	if err := Decode(nil, nil); err != nil {
		t.Errorf("Decode of the empty body into nil: %v", err)
	}
	if err := Decode(led, nil); err == nil {
		t.Error("Decode of a message into nil succeeded")
	}

	raw := []byte("framed by the caller")
	if enc, err := Encode(raw); err != nil || !bytes.Equal(enc, raw) {
		t.Errorf("Encode([]byte) = %q, %v; want the bytes as they are", enc, err)
	}
	var got []byte
	if err := Decode(raw, &got); err != nil || !bytes.Equal(got, raw) {
		t.Errorf("Decode into *[]byte = %q, %v", got, err)
	}
	if len(got) > 0 && &got[0] == &raw[0] {
		t.Error("Decode into *[]byte aliases the body, which the channel reuses")
	}
}

// TestAppendRequestIsTheEnvelope: the request a client writes, its body
// encoded in place, is byte for byte the envelope AppendWire frames around
// Encode of the body (the golden vector's encoding), for every kind of body,
// and a body with no codec is refused.
func TestAppendRequestIsTheEnvelope(t *testing.T) {
	head := requestEnvelope{Method: "attest.v1/Appraise", IdemKey: "idem-1", Trace: "trace-a1b2", Span: "span-7"}
	prefix := []byte("kept")
	for _, body := range []any{nil, []byte{0xC1, 0x01, 0x06, 0xde}, wire.AppraisalRequest{Vid: "vm-1", Prop: properties.StartupIntegrity}} {
		enc, err := Encode(body)
		if err != nil {
			t.Fatal(err)
		}
		env := head
		env.Body = enc
		got, err := appendRequest(append([]byte(nil), prefix...), head, body)
		if err != nil || !bytes.Equal(got, env.AppendWire(prefix)) {
			t.Fatalf("%T body: appendRequest = %x, %v; want %x", body, got, err, env.AppendWire(prefix))
		}
	}
	if got, err := appendRequest(prefix, head, struct{}{}); err == nil {
		t.Fatalf("a body with no codec encoded to %x", got)
	}
}

// TestMethodsDispatch pins the dispatch table: an entry decodes its request
// strictly, a nil reply is the bodiless ack, an entry's error comes back as
// it is, and a method the table lacks is refused naming the server.
func TestMethodsDispatch(t *testing.T) {
	refused := errors.New("refused")
	h := Methods{
		"echo": Method(func(peer Peer, req *echoReq) (any, error) {
			return echoResp{Text: peer.Name + ":" + req.Text}, nil
		}),
		"ack": Method(func(Peer, *echoReq) (any, error) { return nil, nil }),
		"refuse": Method(func(Peer, *echoReq) (any, error) {
			return echoResp{Text: "unsent"}, refused
		}),
	}.Handler("srv-1")
	body, err := Encode(echoReq{Text: "hi"})
	if err != nil {
		t.Fatal(err)
	}
	out, err := h(Peer{Name: "alice"}, "echo", body)
	var resp echoResp
	if err == nil {
		err = Decode(out, &resp)
	}
	if err != nil || resp.Text != "alice:hi" {
		t.Fatalf("echo: %+v, %v", resp, err)
	}
	if out, err := h(Peer{}, "ack", body); err != nil || out != nil {
		t.Fatalf("ack: %q, %v, want the bodiless ack", out, err)
	}
	if out, err := h(Peer{}, "refuse", body); err != refused || out != nil {
		t.Fatalf("refuse: %q, %v, want the entry's own error", out, err)
	}
	for _, bad := range [][]byte{nil, []byte("not-a-message"), append(body[:len(body):len(body)], 0)} {
		if _, err := h(Peer{}, "echo", bad); err == nil {
			t.Errorf("echo accepted the body %q", bad)
		}
	}
	if _, err := h(Peer{}, "no-such-method", body); err == nil || err.Error() != `srv-1: unknown method "no-such-method"` {
		t.Fatalf("unknown method: %v", err)
	}
}
