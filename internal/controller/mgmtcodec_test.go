package controller_test

import (
	"bytes"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"cloudmonatt/internal/attestsrv"
	"cloudmonatt/internal/binenc"
	"cloudmonatt/internal/cloudsim"
	"cloudmonatt/internal/controller"
	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/image"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/rpc"
	"cloudmonatt/internal/server"
	"cloudmonatt/internal/wire"
)

// The management-plane messages — everything on a secure channel that is
// not one of Fig. 3's eight messages or an envelope — tested here in one
// place, in the shape internal/wire tests those eight: the controller
// sends or accepts every one of them, so its test package is the one that
// can import them all.

// wireMsg is a pointer to a message: the value's AppendWire and the
// pointer's DecodeWire.
type wireMsg interface {
	rpc.WireAppender
	rpc.WireDecoder
}

// mgmtCase is one management message: its tag, a fresh decoder, and
// samples of which the first is the committed golden vector.
type mgmtCase struct {
	name    string
	tag     byte
	fresh   func() wireMsg
	samples []wireMsg
}

func mgmtIdentity(name string) *cryptoutil.Identity {
	seed := cryptoutil.Hash("mgmt-golden", []byte(name))
	id, err := cryptoutil.IdentityFromSeed(name, seed[:])
	if err != nil {
		panic(err)
	}
	return id
}

func mgmtCases() []mgmtCase {
	digest := cryptoutil.Hash("mgmt-golden", []byte("image"))
	var n1, n2 cryptoutil.Nonce
	copy(n1[:], digest[:])
	copy(n2[:], digest[8:])
	verdict := properties.Verdict{
		Property: properties.StartupIntegrity, Healthy: true, Backend: "tpm",
		Details: map[string]string{"pcrs": "0,1,7", "image": "cirros"},
	}
	signer := mgmtIdentity("signer")
	crep := wire.BuildCustomerReport(signer, "vm-0001", properties.RuntimeIntegrity, verdict, n1)
	stale := wire.BuildStaleCustomerReport(signer, "vm-0001", properties.RuntimeIntegrity, verdict, n1, 42*time.Second)
	rep := wire.BuildReport(signer, "vm-0001", "cloud-server-1", properties.RuntimeIntegrity, verdict, n2)
	small, _ := image.FlavorByName("small")
	return []mgmtCase{
		{"vid-request", wire.TagVidRequest, func() wireMsg { return new(wire.VidRequest) }, []wireMsg{
			&wire.VidRequest{Vid: "vm-0001"},
			&wire.VidRequest{},
		}},
		{"vm-status", wire.TagVMStatus, func() wireMsg { return new(wire.VMStatus) }, []wireMsg{
			&wire.VMStatus{
				Vid: "vm-0001", Owner: "alice", Server: "cloud-server-1", State: "active", Deleted: true,
				Conditions: []wire.Condition{
					{Type: "Placed", Status: "True", Reason: "Scheduled", Message: "cloud-server-1", At: 3 * time.Second},
					{Type: "Healthy", Status: "False", Reason: "Failed", At: 5 * time.Second},
				},
			},
			&wire.VMStatus{Vid: "vm-0002", Finalized: true},
			&wire.VMStatus{},
		}},
		{"customer-report-list", wire.TagCustomerReportList, func() wireMsg { return new(wire.CustomerReportList) }, []wireMsg{
			&wire.CustomerReportList{crep, stale},
			new(wire.CustomerReportList),
		}},
		{"periodic-batch", wire.TagPeriodicBatch, func() wireMsg { return new(attestsrv.PeriodicBatch) }, []wireMsg{
			&attestsrv.PeriodicBatch{Reports: []*wire.Report{rep, rep}, Dropped: 3, Skipped: 1},
			&attestsrv.PeriodicBatch{},
		}},
		{"launch-request", wire.TagLaunchRequest, func() wireMsg { return new(controller.LaunchRequest) }, []wireMsg{
			&controller.LaunchRequest{
				ImageName: "cirros", Flavor: "small", Workload: "database",
				Props:     []properties.Property{properties.StartupIntegrity, properties.CPUAvailability},
				Allowlist: []string{"init", "sshd"}, MinShare: 0.25, Pin: -1, Server: "cloud-server-2",
			},
			&controller.LaunchRequest{ImageName: "ubuntu", Flavor: "large", Pin: 3},
			&controller.LaunchRequest{},
		}},
		{"launch-result", wire.TagLaunchResult, func() wireMsg { return new(controller.LaunchResult) }, []wireMsg{
			&controller.LaunchResult{
				Vid: "vm-0001", Server: "cloud-server-1", OK: true,
				Stages: []controller.StageTiming{
					{Stage: "scheduling", Duration: 12 * time.Millisecond},
					{Stage: "attestation", Duration: 1500 * time.Millisecond},
				},
				Verdict: verdict,
			},
			&controller.LaunchResult{Vid: "vm-0002", Reason: "no qualified server"},
			&controller.LaunchResult{},
		}},
		{"vm-summary-list", wire.TagVMSummaryList, func() wireMsg { return new(controller.VMSummaryList) }, []wireMsg{
			&controller.VMSummaryList{
				{Vid: "vm-0001", ImageName: "cirros", Flavor: "small", Workload: "idle", Props: properties.All, State: "active"},
				{Vid: "vm-0002", ImageName: "fedora", Flavor: "medium", State: "suspended"},
			},
			new(controller.VMSummaryList),
		}},
		{"response-event-list", wire.TagResponseEventList, func() wireMsg { return new(controller.ResponseEventList) }, []wireMsg{
			&controller.ResponseEventList{
				{Vid: "vm-0001", Prop: properties.CPUAvailability, Response: controller.Migrate, Reason: "starved",
					At: 9 * time.Second, Duration: 4 * time.Second, NewServer: "cloud-server-2"},
				{Vid: "vm-0002", Prop: properties.RuntimeIntegrity, Response: controller.Terminate, Terminated: true},
			},
			new(controller.ResponseEventList),
		}},
		{"launch-spec", wire.TagLaunchSpec, func() wireMsg { return new(server.LaunchSpec) }, []wireMsg{
			&server.LaunchSpec{Vid: "vm-0001", ImageName: "cirros", ImageDigest: digest, Flavor: small, Workload: "database", Pin: -1},
			&server.LaunchSpec{},
		}},
		{"vm-info", wire.TagVMInfo, func() wireMsg { return new(server.VMInfo) }, []wireMsg{
			&server.VMInfo{Vid: "vm-0001", Workload: "bzip2", Runtime: 7 * time.Second, Done: true, DoneAt: 6 * time.Second, State: "running"},
			&server.VMInfo{},
		}},
		{"vm-record", wire.TagVMRecord, func() wireMsg { return new(attestsrv.VMRecord) }, []wireMsg{
			&attestsrv.VMRecord{Vid: "vm-0001", ExpectedImage: digest, TaskAllowlist: []string{"init", "sshd"}, MinCPUShare: 0.25},
			&attestsrv.VMRecord{},
		}},
		{"periodic-control", wire.TagPeriodicControl, func() wireMsg { return new(attestsrv.PeriodicControl) }, []wireMsg{
			&attestsrv.PeriodicControl{Vid: "vm-0001", ServerID: "cloud-server-1", Prop: properties.CPUAvailability, Freq: 5 * time.Second, Random: true},
			&attestsrv.PeriodicControl{},
		}},
		{"rebind-request", wire.TagRebindRequest, func() wireMsg { return new(attestsrv.RebindRequest) }, []wireMsg{
			&attestsrv.RebindRequest{Vid: "vm-0001", ServerID: "cloud-server-2"},
			&attestsrv.RebindRequest{},
		}},
	}
}

// TestMgmtTagsAreOneSpace: every management tag is distinct and outside
// the protocol messages' 1-8 and the envelopes' 9 and 10.
func TestMgmtTagsAreOneSpace(t *testing.T) {
	seen := make(map[byte]string)
	for _, mc := range mgmtCases() {
		if mc.tag <= 10 {
			t.Errorf("%s has tag %d, inside the protocol and envelope range", mc.name, mc.tag)
		}
		if other, dup := seen[mc.tag]; dup {
			t.Errorf("%s and %s share tag %d", mc.name, other, mc.tag)
		}
		seen[mc.tag] = mc.name
		if enc := mc.samples[0].AppendWire(nil); enc[0] != binenc.Magic || enc[1] != binenc.Version || enc[2] != mc.tag {
			t.Errorf("%s is led by % x, want magic, version, tag %d", mc.name, enc[:3], mc.tag)
		}
	}
}

func TestMgmtGoldenVectors(t *testing.T) {
	for _, mc := range mgmtCases() {
		t.Run(mc.name, func(t *testing.T) {
			path := filepath.Join("testdata", "golden", mc.name+".hex")
			enc := mc.samples[0].AppendWire(nil)
			if os.Getenv("REGEN_GOLDEN") != "" {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(hex.EncodeToString(enc)+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden vector (run with REGEN_GOLDEN=1 after an intentional format change): %v", err)
			}
			want, err := hex.DecodeString(string(bytes.TrimSpace(raw)))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, want) {
				t.Fatalf("%s encoding drifted from the committed golden vector\n got: %x\nwant: %x", mc.name, enc, want)
			}
			got := mc.fresh()
			if err := got.DecodeWire(want); err != nil {
				t.Fatalf("decoding golden vector: %v", err)
			}
			if !reflect.DeepEqual(got, mc.samples[0]) {
				t.Fatalf("golden vector decodes to %+v, want %+v", got, mc.samples[0])
			}
		})
	}
}

// TestMgmtRoundTrip: through rpc.Encode and rpc.Decode, as the handlers
// use them, every sample comes back equal and re-encodes to the same
// bytes, into a decoder that held something else before.
func TestMgmtRoundTrip(t *testing.T) {
	for _, mc := range mgmtCases() {
		for i, sample := range mc.samples {
			enc, err := rpc.Encode(sample)
			if err != nil {
				t.Fatalf("%s[%d]: %v", mc.name, i, err)
			}
			got := mc.fresh()
			if err := rpc.Decode(mc.samples[0].AppendWire(nil), got); err != nil {
				t.Fatalf("%s[0]: %v", mc.name, err)
			}
			if err := rpc.Decode(enc, got); err != nil {
				t.Fatalf("%s[%d]: decoding its own encoding: %v", mc.name, i, err)
			}
			if !reflect.DeepEqual(got, sample) {
				t.Errorf("%s[%d] came back as %+v, want %+v", mc.name, i, got, sample)
			}
			if re := got.AppendWire(nil); !bytes.Equal(re, enc) {
				t.Errorf("%s[%d] re-encodes differently:\n in: %x\nout: %x", mc.name, i, enc, re)
			}
		}
	}
}

// TestLaunchRequestOwnerDoesNotTravel: whatever Owner a customer writes
// into a request is not on the wire.
func TestLaunchRequestOwnerDoesNotTravel(t *testing.T) {
	with, without := req(), req()
	with.Owner = "alice"
	if !bytes.Equal(with.AppendWire(nil), without.AppendWire(nil)) {
		t.Fatal("Owner changes the encoding of a LaunchRequest")
	}
}

// TestMgmtDecodersRefuseForeignBodies: a management decoder accepts only a
// body led by the binary header with its own tag — not an empty body, not
// what a gob peer would have sent, not another version, not any other
// management message.
func TestMgmtDecodersRefuseForeignBodies(t *testing.T) {
	cases := mgmtCases()
	for _, mc := range cases {
		own := mc.samples[0].AppendWire(nil)
		foreign := map[string][]byte{
			"empty":          nil,
			"gob-led":        append([]byte{0x1f, 0xff, 0x81, 0x03, 0x01, 0x01}, own[3:]...),
			"no-magic":       own[1:],
			"future-version": append([]byte{binenc.Magic, binenc.Version + 1, mc.tag}, own[3:]...),
			"envelope-tag":   append([]byte{binenc.Magic, binenc.Version, 9}, own[3:]...),
		}
		for _, other := range cases {
			if other.tag != mc.tag {
				foreign[other.name] = other.samples[0].AppendWire(nil)
				foreign[other.name+"-retagged"] = append([]byte{binenc.Magic, binenc.Version, other.tag}, own[3:]...)
			}
		}
		for name, body := range foreign {
			if err := rpc.Decode(body, mc.fresh()); err == nil {
				t.Errorf("%s accepted a %s body: %x", mc.name, name, body)
			}
		}
	}
}

// allocatedBy reports the bytes fn allocated.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestMgmtDecodersRefuseHostileInput: the malformed bodies a peer can
// compose are refused with an error — no panic, and no allocation sized by
// a count the body states but does not carry.
func TestMgmtDecodersRefuseHostileInput(t *testing.T) {
	u32 := func(n uint32) []byte { return binenc.AppendUint32(nil, n) }
	header := func(tag byte) []byte { return binenc.AppendHeader(nil, tag) }
	str := func(s string) []byte { return binenc.AppendString(nil, s) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

	launch := req().AppendWire(nil)
	hugeProps := cat(header(wire.TagLaunchRequest), str("cirros"), str("small"), str("idle"), u32(1_000_000))
	hugeProps = append(hugeProps, make([]byte, 40-len(hugeProps))...)
	hugeAllow := cat(header(wire.TagLaunchRequest), str("c"), str("s"), str("i"), u32(0), u32(1_000_000))
	hugeAllow = append(hugeAllow, make([]byte, 40-len(hugeAllow))...)
	hugeString := cat(header(wire.TagLaunchRequest), u32(0xFFFFFFFF), make([]byte, 33))
	hugeList := func(tag byte) []byte {
		return cat(header(tag), u32(1_000_000), make([]byte, 33))
	}
	hugeBatch := cat(header(wire.TagPeriodicBatch), make([]byte, 16), u32(1_000_000), make([]byte, 17))
	badBool := (&attestsrv.PeriodicControl{Vid: "vm-0001", Random: true}).AppendWire(nil)
	badBool[len(badBool)-1] = 2
	result := (&controller.LaunchResult{Vid: "vm-0001", OK: true}).AppendWire(nil)
	badOK := bytes.Replace(result, cat(str("vm-0001"), str(""), []byte{1}), cat(str("vm-0001"), str(""), []byte{0xFF}), 1)

	for _, tc := range []struct {
		name string
		into wireMsg
		body []byte
	}{
		{"property count of 10^6 in a 40-byte body", new(controller.LaunchRequest), hugeProps},
		{"allowlist count of 10^6 in a 40-byte body", new(controller.LaunchRequest), hugeAllow},
		{"string length of 2^32-1 in a 40-byte body", new(controller.LaunchRequest), hugeString},
		{"summary count of 10^6 in a 40-byte body", new(controller.VMSummaryList), hugeList(wire.TagVMSummaryList)},
		{"event count of 10^6 in a 40-byte body", new(controller.ResponseEventList), hugeList(wire.TagResponseEventList)},
		{"report count of 10^6 in a 40-byte body", new(wire.CustomerReportList), hugeList(wire.TagCustomerReportList)},
		{"batch count of 10^6 in a 40-byte body", new(attestsrv.PeriodicBatch), hugeBatch},
		{"trailing byte", new(controller.LaunchRequest), append(append([]byte(nil), launch...), 0)},
		{"truncated by one byte", new(controller.LaunchRequest), launch[:len(launch)-1]},
		{"header only", new(controller.LaunchRequest), header(wire.TagLaunchRequest)},
		{"non-canonical boolean 2", new(attestsrv.PeriodicControl), badBool},
		{"non-canonical boolean 0xFF", new(controller.LaunchResult), badOK},
	} {
		if len(tc.body) > 40 && strings.Contains(tc.name, "40-byte") {
			t.Fatalf("%s: the body is %d bytes", tc.name, len(tc.body))
		}
		var err error
		if n := allocatedBy(func() { err = tc.into.DecodeWire(tc.body) }); n > 4096 {
			t.Errorf("%s: decoding allocated %d bytes", tc.name, n)
		}
		if err == nil {
			t.Errorf("%s: accepted as %+v", tc.name, tc.into)
		}
	}
}

// TestLaunchRefusesHostileValues: what decodes but no launch can mean is
// refused by the launch_vm handler before any state changes.
func TestLaunchRefusesHostileValues(t *testing.T) {
	tb, _ := newTB(t, cloudsim.Options{Seed: 72})
	h := tb.Ctrl.Handler()
	for name, mutate := range map[string]func(*controller.LaunchRequest){
		"unknown property name": func(r *controller.LaunchRequest) { r.Props = []properties.Property{"root-access"} },
		"empty property name":   func(r *controller.LaunchRequest) { r.Props = append(r.Props, "") },
		"MinShare NaN":          func(r *controller.LaunchRequest) { r.MinShare = math.NaN() },
		"MinShare negative":     func(r *controller.LaunchRequest) { r.MinShare = -0.25 },
		"MinShare above one":    func(r *controller.LaunchRequest) { r.MinShare = 1.5 },
		"MinShare +Inf":         func(r *controller.LaunchRequest) { r.MinShare = math.Inf(1) },
		"Pin -2":                func(r *controller.LaunchRequest) { r.Pin = -2 },
		"Pin most negative":     func(r *controller.LaunchRequest) { r.Pin = math.MinInt64 },
	} {
		r := req()
		mutate(&r)
		body, err := rpc.Encode(r)
		if err != nil {
			t.Fatal(err)
		}
		out, err := h(rpcPeer("tester"), controller.MethodLaunchVM, body)
		if err == nil {
			t.Errorf("%s: launched: %x", name, out)
		}
	}
	if vms := tb.Ctrl.ListVMs("tester"); len(vms) != 0 {
		t.Fatalf("refused launches left VMs behind: %+v", vms)
	}
}

// TestLaunchOwnerIsTheAuthenticatedPeer: a registered customer cannot
// launch a VM under another customer's name. mallory sends a request
// built for owner alice; the VM is mallory's.
func TestLaunchOwnerIsTheAuthenticatedPeer(t *testing.T) {
	tb, _ := newTB(t, cloudsim.Options{Seed: 73})
	h := tb.Ctrl.Handler()
	r := req()
	r.Owner = "alice"
	body, err := rpc.Encode(r)
	if err != nil {
		t.Fatal(err)
	}
	out, err := h(rpcPeer("mallory"), controller.MethodLaunchVM, body)
	if err != nil {
		t.Fatal(err)
	}
	var res controller.LaunchResult
	if err := rpc.Decode(out, &res); err != nil || !res.OK {
		t.Fatalf("launch: %+v, %v", res, err)
	}
	list := func(peer string) controller.VMSummaryList {
		t.Helper()
		out, err := h(rpcPeer(peer), controller.MethodListVMs, nil)
		if err != nil {
			t.Fatal(err)
		}
		var vms controller.VMSummaryList
		if err := rpc.Decode(out, &vms); err != nil {
			t.Fatal(err)
		}
		return vms
	}
	if vms := list("alice"); len(vms) != 0 {
		t.Fatalf("alice's list_vms shows a VM mallory launched: %+v", vms)
	}
	if vms := list("mallory"); len(vms) != 1 || vms[0].Vid != res.Vid {
		t.Fatalf("mallory's list_vms = %+v, want %s", vms, res.Vid)
	}
}

// mgmtSeeds are FuzzMgmtDecode's seeds: every sample, and the malformed
// leads of the binary fuzzer.
func mgmtSeeds() [][]byte {
	var seeds [][]byte
	for _, mc := range mgmtCases() {
		for _, s := range mc.samples {
			seeds = append(seeds, s.AppendWire(nil))
		}
	}
	return append(seeds, []byte{}, []byte{binenc.Magic}, []byte{binenc.Magic, binenc.Version},
		[]byte{binenc.Magic, binenc.Version + 1, wire.TagLaunchRequest})
}

// FuzzMgmtDecode hands arbitrary bytes to every management decoder: none
// may panic, and whatever one accepts must re-encode to exactly the input
// (decode∘encode == identity, so no two byte strings mean one message).
func FuzzMgmtDecode(f *testing.F) {
	for _, s := range mgmtSeeds() {
		f.Add(s)
	}
	cases := mgmtCases()
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, mc := range cases {
			m := mc.fresh()
			if err := m.DecodeWire(data); err != nil {
				continue
			}
			if got := m.AppendWire(nil); !bytes.Equal(got, data) {
				t.Fatalf("%s accepted a non-canonical encoding:\n in: %x\nout: %x", mc.name, data, got)
			}
		}
	})
}
