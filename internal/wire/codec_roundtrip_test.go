package wire

import (
	"testing"
	"time"

	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/rpc"
)

// The protocol structs cross process boundaries through the RPC layer's
// codec; these tests pin down that a full round trip preserves
// signature-relevant content (a lossy field would silently break
// verification at the far end).

func TestEvidenceCodecRoundTrip(t *testing.T) {
	f := newFixture(t)
	req, ms := sampleMeasurements()
	n3 := cryptoutil.MustNonce()
	ev := BuildEvidence(f.sess, "vm-1", req, ms, n3, "tpm")
	body, err := rpc.Encode(ev)
	if err != nil {
		t.Fatal(err)
	}
	var got Evidence
	if err := rpc.Decode(body, &got); err != nil {
		t.Fatal(err)
	}
	if err := VerifyEvidence(&got, f.ca.Name(), f.ca.PublicKey(), "vm-1", req, n3); err != nil {
		t.Fatalf("evidence no longer verifies after a round trip: %v", err)
	}
}

func TestEvidenceWithAllMeasurementKindsRoundTrips(t *testing.T) {
	f := newFixture(t)
	req := properties.Request{Kinds: []properties.MeasurementKind{
		properties.KindPlatformQuote, properties.KindTaskList,
		properties.KindIntervalHistogram, properties.KindCPUTime,
	}, Window: time.Second}
	ms := []properties.Measurement{
		{
			Kind:     properties.KindPlatformQuote,
			Digest:   [32]byte{1, 2, 3},
			LogNames: []string{"0:firmware", "1:hypervisor"},
			LogSums:  [][32]byte{{4}, {5}},
			QuoteSig: []byte{9, 9, 9},
			QuotePCR: []uint32{0, 1},
			QuoteVal: [][32]byte{{6}, {7}},
		},
		{Kind: properties.KindTaskList, Tasks: []string{"init", "sshd"}},
		{Kind: properties.KindIntervalHistogram, Counters: []uint64{1, 0, 42}},
		{Kind: properties.KindCPUTime, CPUTime: 480 * time.Millisecond, WallTime: time.Second},
	}
	n3 := cryptoutil.MustNonce()
	ev := BuildEvidence(f.sess, "vm-1", req, ms, n3, "tpm")
	body, err := rpc.Encode(ev)
	if err != nil {
		t.Fatal(err)
	}
	var got Evidence
	if err := rpc.Decode(body, &got); err != nil {
		t.Fatal(err)
	}
	if err := VerifyEvidence(&got, f.ca.Name(), f.ca.PublicKey(), "vm-1", req, n3); err != nil {
		t.Fatalf("multi-kind evidence broken by round trip: %v", err)
	}
	if len(got.Measurements) != 4 {
		t.Fatalf("measurements lost: %d", len(got.Measurements))
	}
}

func TestReportCodecRoundTrip(t *testing.T) {
	f := newFixture(t)
	n2 := cryptoutil.MustNonce()
	v := properties.Verdict{
		Property: properties.CovertChannelFreedom,
		Healthy:  false,
		Reason:   "bimodal distribution",
		Details:  map[string]string{"peak1": "3ms", "peak2": "7ms"},
	}
	rep := BuildReport(f.attest, "vm-1", "srv-1", v.Property, v, n2)
	body, err := rpc.Encode(rep)
	if err != nil {
		t.Fatal(err)
	}
	var got Report
	if err := rpc.Decode(body, &got); err != nil {
		t.Fatal(err)
	}
	if err := VerifyReport(&got, f.attest.Public(), "vm-1", v.Property, n2); err != nil {
		t.Fatalf("report broken by round trip: %v", err)
	}
	if got.Verdict.Details["peak1"] != "3ms" {
		t.Fatal("verdict details lost")
	}
}

func TestCustomerReportCodecRoundTrip(t *testing.T) {
	f := newFixture(t)
	n1 := cryptoutil.MustNonce()
	rep := BuildCustomerReport(f.ctrl, "vm-1", properties.CPUAvailability, sampleVerdict(), n1)
	body, err := rpc.Encode(rep)
	if err != nil {
		t.Fatal(err)
	}
	var got CustomerReport
	if err := rpc.Decode(body, &got); err != nil {
		t.Fatal(err)
	}
	if err := VerifyCustomerReport(&got, f.ctrl.Public(), "vm-1", properties.CPUAvailability, n1); err != nil {
		t.Fatalf("customer report broken by round trip: %v", err)
	}
}

func TestCustomerBatchCodecRoundTrip(t *testing.T) {
	f := newFixture(t)
	n1 := cryptoutil.MustNonce()
	for _, vs := range [][]properties.Verdict{nil, {sampleVerdict(), sampleVerdict()}} {
		b := BuildCustomerBatch(f.ctrl, "vm-1", properties.CPUAvailability, n1, vs)
		body, err := rpc.Encode(b)
		if err != nil {
			t.Fatal(err)
		}
		var got CustomerBatch
		if err := rpc.Decode(body, &got); err != nil {
			t.Fatal(err)
		}
		if err := VerifyCustomerBatch(&got, f.ctrl.Public(), "vm-1", properties.CPUAvailability, n1); err != nil {
			t.Fatalf("customer batch of %d broken by round trip: %v", len(vs), err)
		}
		if len(got.Verdicts) != len(vs) {
			t.Fatalf("round trip kept %d of %d verdicts", len(got.Verdicts), len(vs))
		}
	}
}
