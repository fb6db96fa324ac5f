package properties

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"
	"time"
)

func TestValid(t *testing.T) {
	for _, p := range All {
		if !Valid(p) {
			t.Errorf("%s reported invalid", p)
		}
	}
	if Valid("nope") {
		t.Error("invalid property reported valid")
	}
}

func TestMeasurementEncodeDistinguishesKinds(t *testing.T) {
	a := Measurement{Kind: KindTaskList, Tasks: []string{"init"}}
	b := Measurement{Kind: KindCPUTime, CPUTime: time.Second}
	if bytes.Equal(a.AppendWire(nil), b.AppendWire(nil)) {
		t.Fatal("different measurements encode identically")
	}
}

func TestMeasurementEncodeInjective(t *testing.T) {
	// Task-list boundary attack: ["ab","c"] vs ["a","bc"].
	a := Measurement{Kind: KindTaskList, Tasks: []string{"ab", "c"}}
	b := Measurement{Kind: KindTaskList, Tasks: []string{"a", "bc"}}
	if bytes.Equal(a.AppendWire(nil), b.AppendWire(nil)) {
		t.Fatal("task-list encoding is not injective")
	}
}

func TestQuickMeasurementEncodeDeterministic(t *testing.T) {
	f := func(tasks []string, counters []uint64, cpu uint32) bool {
		m := Measurement{Kind: KindIntervalHistogram, Tasks: tasks, Counters: counters, CPUTime: time.Duration(cpu)}
		return bytes.Equal(m.AppendWire(nil), m.AppendWire(nil))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCounterSensitivity(t *testing.T) {
	f := func(counters []uint64) bool {
		if len(counters) == 0 {
			return true
		}
		m := Measurement{Kind: KindIntervalHistogram, Counters: counters}
		enc := m.AppendWire(nil)
		mod := append([]uint64(nil), counters...)
		mod[0]++
		m2 := Measurement{Kind: KindIntervalHistogram, Counters: mod}
		return !bytes.Equal(enc, m2.AppendWire(nil))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeAllLengthSensitive(t *testing.T) {
	m := Measurement{Kind: KindTaskList, Tasks: []string{"x"}}
	one := AppendWireAll(nil, []Measurement{m})
	two := AppendWireAll(nil, []Measurement{m, m})
	if bytes.Equal(one, two) {
		t.Fatal("AppendWireAll insensitive to list length")
	}
}

func TestRequestEncode(t *testing.T) {
	a := Request{Kinds: []MeasurementKind{KindTaskList}, Window: time.Second}
	b := Request{Kinds: []MeasurementKind{KindTaskList}, Window: 2 * time.Second}
	if bytes.Equal(a.AppendWire(nil), b.AppendWire(nil)) {
		t.Fatal("request encoding ignores window")
	}
	c := Request{Kinds: []MeasurementKind{KindCPUTime}, Window: time.Second}
	if bytes.Equal(a.AppendWire(nil), c.AppendWire(nil)) {
		t.Fatal("request encoding ignores kinds")
	}
}

func TestVerdictEncodeAndString(t *testing.T) {
	v := Verdict{Property: CPUAvailability, Healthy: true, Reason: "ok"}
	w := Verdict{Property: CPUAvailability, Healthy: false, Reason: "ok"}
	if bytes.Equal(v.AppendEncode(nil), w.AppendEncode(nil)) {
		t.Fatal("verdict encoding ignores health bit")
	}
	if got := v.String(); got == "" || got == w.String() {
		t.Fatal("verdict String not distinguishing")
	}
}

// TestVerdictEncodingPinned holds the canonical verdict rendering to fixed
// bytes: every Q1/Q2 quote and signed report body hashes it, so a change
// here is a protocol change. Details stay out.
func TestVerdictEncodingPinned(t *testing.T) {
	for _, c := range []struct {
		v    Verdict
		want string
	}{
		{
			Verdict{Property: RuntimeIntegrity, Class: FailureRuntime, Reason: "rogue task: miner", Backend: "tpm", Details: map[string]string{"x": "y"}},
			"0000001172756e74696d652d696e74656772697479000000000772756e74696d6500000011726f677565207461736b3a206d696e65720000000374706d00",
		},
		{
			UnattestableVerdict(CPUAvailability, "sev-snp"),
			"000000106370752d617661696c6162696c69747900000000000000004870726f7065727479206370752d617661696c6162696c697479206973206e6f742061747465737461626c65206f6e20746865207365762d736e70207472757374206261636b656e64000000077365762d736e7001",
		},
	} {
		if got := hex.EncodeToString(c.v.AppendEncode(nil)); got != c.want {
			t.Fatalf("%v encodes to %s, want %s", c.v, got, c.want)
		}
		if got := hex.EncodeToString(c.v.AppendEncode([]byte{0xff})[1:]); got != c.want {
			t.Fatalf("%v appended after a prefix encodes to %s, want %s", c.v, got, c.want)
		}
	}
}

// TestVerdictAppendEncodeAllocFree: rendering a verdict into a buffer with
// room, as the report builders and verifiers do on their stack, allocates
// nothing.
func TestVerdictAppendEncodeAllocFree(t *testing.T) {
	v := Verdict{Property: StartupIntegrity, Healthy: true, Reason: "platform and image match their references", Backend: "tpm"}
	var buf [256]byte
	if a := testing.AllocsPerRun(100, func() { _ = v.AppendEncode(buf[:0]) }); a != 0 {
		t.Fatalf("AppendEncode into a buffer with room: %v allocs, want 0", a)
	}
}
