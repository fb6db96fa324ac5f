// Tests of the tpm backend's incremental startup appraisal: evidence that
// carries the event log from where the verifier's LogMemory ends must be
// judged exactly as the whole log would be, an attester that answers
// anything else must be refused or asked again and never believed, and the
// memory must move only forward and only on a healthy verdict.
package driver_test

import (
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/trust/driver"
)

func imageOf(name string) [32]byte { return sha256.Sum256([]byte(name)) }

// collectFrom is collect for any VM and any place in the log.
func collectFrom(t testing.TB, drv driver.Driver, vid string, nonce cryptoutil.Nonce, image [32]byte, logFrom int) []properties.Measurement {
	t.Helper()
	ev, err := drv.PlatformEvidence(vid, nonce, logFrom)
	if err != nil {
		t.Fatalf("platform evidence: %v", err)
	}
	return []properties.Measurement{ev, {Kind: properties.KindImageDigest, Digest: image}}
}

func keepAll(string) bool { return true }

// verifier is the owner side of a LogMemory, as the Attestation Server
// plays it: copy, ask from the copy's count, appraise, land.
type verifier struct {
	t    testing.TB
	drv  driver.Driver
	mem  driver.LogMemory
	keep func(string) bool
}

// appraise runs one incremental appraisal of vid and returns the verdict and
// the appraisal's copy of the memory, landed.
func (v *verifier) appraise(vid string, expected [32]byte) (properties.Verdict, *driver.LogMemory) {
	v.t.Helper()
	nonce := cryptoutil.MustNonce()
	a := v.mem.For(vid)
	refs := refsFor(v.drv, expected)
	refs.Vid, refs.LogMemory = vid, a
	verdict := driver.AppraiseStartup(driver.BackendTPM, collectFrom(v.t, v.drv, vid, nonce, expected, a.Count), nonce, refs)
	keep := v.keep
	if keep == nil {
		keep = keepAll
	}
	v.mem.Land(a, keep)
	return verdict, a
}

// whole appraises vid with nothing remembered, on the server's whole log.
func (v *verifier) whole(vid string, expected [32]byte) properties.Verdict {
	v.t.Helper()
	nonce := cryptoutil.MustNonce()
	refs := refsFor(v.drv, expected)
	refs.Vid = vid
	return driver.AppraiseStartup(driver.BackendTPM, collectFrom(v.t, v.drv, vid, nonce, expected, 0), nonce, refs)
}

func sameVerdict(a, b properties.Verdict) bool {
	return a.Healthy == b.Healthy && a.Class == b.Class && a.Reason == b.Reason && fmt.Sprint(a.Details) == fmt.Sprint(b.Details)
}

// TestIncrementalAppraisalEqualsWholeLog launches and appraises VMs in turn
// on one server, one of them from a tampered image, and holds every verdict
// against the memoryless appraisal of the whole log at that instant.
func TestIncrementalAppraisalEqualsWholeLog(t *testing.T) {
	pristine, trojaned := pristineImage(), imageOf("trojaned-image")
	drv := provision(t, driver.BackendTPM, driver.Config{ServerName: "incremental", Rand: rand.Reader}, platform, pristine)
	v := &verifier{t: t, drv: drv}
	launched := map[string][32]byte{"vm-1": pristine}
	events := 5 // four boot components and vm-1's image
	check := func(vid string) {
		t.Helper()
		before := v.mem.Count
		got, a := v.appraise(vid, pristine)
		want := v.whole(vid, pristine)
		if !sameVerdict(got, want) {
			t.Fatalf("%s: incremental verdict %+v, whole-log verdict %+v", vid, got, want)
		}
		if a.Miss != "" {
			t.Fatalf("%s: honest evidence missed: %s", vid, a.Miss)
		}
		if want.Healthy != (launched[vid] == pristine) {
			t.Fatalf("%s: whole-log verdict healthy=%v, launched from the pristine image: %v", vid, want.Healthy, launched[vid] == pristine)
		}
		wantCount := before // an unhealthy verdict teaches nothing
		if got.Healthy {
			wantCount = events
		}
		if v.mem.Count != wantCount {
			t.Fatalf("%s: memory at %d of %d events after a healthy=%v verdict, want %d", vid, v.mem.Count, events, got.Healthy, wantCount)
		}
	}
	check("vm-1")
	check("vm-1")
	for i := 2; i <= 9; i++ {
		vid := fmt.Sprintf("vm-%d", i)
		launched[vid] = pristine
		if i == 4 {
			launched[vid] = trojaned
		}
		if err := drv.AddVM(vid, launched[vid]); err != nil {
			t.Fatal(err)
		}
		events++
		if i%2 == 0 {
			check(vid) // even VMs are appraised at launch...
		}
	}
	// ...and everyone afterwards: vm-4's entry is the trojaned image whether
	// it is carried (above) or remembered from a neighbour's appraisal (here).
	for i := 9; i >= 1; i-- {
		check(fmt.Sprintf("vm-%d", i))
	}
	if v.mem.Count != events {
		t.Fatalf("memory ends at %d events, want %d", v.mem.Count, events)
	}
}

// TestHostileAttester answers a request for the log from where the memory
// ends with everything but that. No answer is believed: each draws an
// unhealthy verdict, and the two that a stale memory could also explain
// (the replay does not land, the VM's entry is nowhere) name the miss that
// makes the caller ask again from event 0. None moves the memory, and what
// then comes back from event 0 is judged with nothing remembered.
func TestHostileAttester(t *testing.T) {
	pristine, other := pristineImage(), imageOf("another-image")
	type answer = *properties.Measurement // the platform evidence to falsify
	swap := func(m answer, i, j int) {
		m.LogNames[i], m.LogNames[j] = m.LogNames[j], m.LogNames[i]
		m.LogSums[i], m.LogSums[j] = m.LogSums[j], m.LogSums[i]
	}
	drop := func(m answer, i int) {
		m.LogNames = append(m.LogNames[:i:i], m.LogNames[i+1:]...)
		m.LogSums = append(m.LogSums[:i:i], m.LogSums[i+1:]...)
	}
	// The carried events are vm-2 (another image), vm-3, vm-4; vm-4 is attested.
	cases := []struct {
		name string
		// from is where the attester reads its log from, given where it was
		// asked to; nil honours the request.
		from   func(asked int) int
		mutate func(m answer)
		// late is measured into the platform before the evidence is taken.
		late string
		// miss is the miss the appraisal names, which fixes the verdict
		// beside it; class and reason are the verdict where there is none.
		miss   string
		class  properties.FailureClass
		reason string
	}{
		{name: "ignores-from", from: func(int) int { return 0 },
			miss: "replay-mismatch"},
		{name: "one-event-early", from: func(n int) int { return n - 1 },
			miss: "replay-mismatch"},
		{name: "one-event-late", from: func(n int) int { return n + 1 },
			miss: "replay-mismatch"},
		{name: "shorter-log", from: func(n int) int { return n + 100 },
			miss: "replay-mismatch"},
		{name: "drops-an-event", mutate: func(m answer) { drop(m, 0) },
			miss: "replay-mismatch"},
		{name: "drops-the-attested-entry", mutate: func(m answer) { drop(m, 2) },
			miss: "replay-mismatch"},
		{name: "reorders", mutate: func(m answer) { swap(m, 0, 1) },
			miss: "replay-mismatch"},
		{name: "duplicates", mutate: func(m answer) {
			m.LogNames = append(m.LogNames, m.LogNames[1])
			m.LogSums = append(m.LogSums, m.LogSums[1])
		}, miss: "replay-mismatch"},
		{name: "edits-a-digest", mutate: func(m answer) { m.LogSums[1][0] ^= 1 },
			miss: "replay-mismatch"},
		{name: "moves-an-event-to-another-pcr", mutate: func(m answer) { m.LogNames[1] = "9:vm-image-vm-3" },
			miss: "replay-mismatch"},
		// Replay ignores descriptions, so relabelled events still explain the
		// quote; what they say of the attested VM is all that is left to lie
		// about.
		{name: "relabels-the-attested-entry", mutate: func(m answer) { m.LogNames[2] = "8:vm-image-vm-9" },
			miss: "entry-unknown"},
		{name: "relabels-a-neighbour-as-attested", mutate: func(m answer) { m.LogNames[0] = "8:vm-image-vm-4" },
			class: properties.FailureImage, reason: "VM image measurement differs"},
		// Not an answer's lie but the log's truth: software measured into the
		// platform after boot is judged when its event is replayed.
		{name: "late-rootkit", late: "rootkit",
			class: properties.FailurePlatform, reason: "unknown software"},
	}
	for _, tc := range cases {
		switch tc.miss {
		case "replay-mismatch":
			tc.class, tc.reason = properties.FailurePlatform, "measurement log does not explain PCR"
		case "entry-unknown":
			tc.class, tc.reason = properties.FailureImage, "no measurement for this VM's image"
		}
		t.Run(tc.name, func(t *testing.T) {
			drv := provision(t, driver.BackendTPM, driver.Config{ServerName: "hostile", Rand: rand.Reader}, platform, pristine)
			v := &verifier{t: t, drv: drv}
			if verdict, _ := v.appraise("vm-1", pristine); !verdict.Healthy || v.mem.Count != 5 {
				t.Fatalf("setting the memory up: %+v, %d events", verdict, v.mem.Count)
			}
			for _, vm := range []struct {
				vid string
				img [32]byte
			}{{"vm-2", other}, {"vm-3", pristine}, {"vm-4", pristine}} {
				if err := drv.AddVM(vm.vid, vm.img); err != nil {
					t.Fatal(err)
				}
			}
			if tc.late != "" {
				if err := drv.BootMeasure(tc.late, []byte("lkm")); err != nil {
					t.Fatal(err)
				}
			}
			before := v.mem

			nonce := cryptoutil.MustNonce()
			a := v.mem.For("vm-4")
			from := a.Count
			if tc.from != nil {
				from = tc.from(from)
			}
			ms := collectFrom(t, drv, "vm-4", nonce, pristine, from)
			if tc.mutate != nil {
				tc.mutate(&ms[0])
			}
			refs := refsFor(drv, pristine)
			refs.Vid, refs.LogMemory = "vm-4", a
			verdict := driver.AppraiseStartup(driver.BackendTPM, ms, nonce, refs)
			if verdict.Healthy || verdict.Class != tc.class || !strings.Contains(verdict.Reason, tc.reason) {
				t.Fatalf("verdict healthy=%v class=%q reason=%q, want unhealthy %q containing %q",
					verdict.Healthy, verdict.Class, verdict.Reason, tc.class, tc.reason)
			}
			if a.Miss != tc.miss {
				t.Fatalf("miss %q, want %q", a.Miss, tc.miss)
			}
			if a.Count != before.Count || a.Bank != before.Bank {
				t.Fatalf("an unhealthy verdict moved the appraisal's copy to %d events", a.Count)
			}
			v.mem.Land(a, keepAll)
			switch {
			case tc.miss == "replay-mismatch" && v.mem.Count != 0:
				t.Fatalf("a memory that does not lead to the quote is kept at %d events", v.mem.Count)
			case tc.miss != "replay-mismatch" && (v.mem.Count != before.Count || v.mem.Bank != before.Bank):
				t.Fatalf("memory moved from %d to %d events", before.Count, v.mem.Count)
			}

			// Asked again from event 0, an honest log is believed and
			// remembered; one that still hides the VM's entry is the verdict.
			if tc.miss == "" {
				return
			}
			nonce = cryptoutil.MustNonce()
			fresh := new(driver.LogMemory)
			ms = collectFrom(t, drv, "vm-4", nonce, pristine, 0)
			refs.LogMemory = fresh
			if verdict := driver.AppraiseStartup(driver.BackendTPM, ms, nonce, refs); !verdict.Healthy || fresh.Miss != "" {
				t.Fatalf("the whole honest log: %+v, miss %q", verdict, fresh.Miss)
			}
			v.mem.Land(fresh, keepAll)
			if v.mem.Count != 8 {
				t.Fatalf("memory at %d events after the whole log, want 8", v.mem.Count)
			}
			nonce = cryptoutil.MustNonce()
			ms = collectFrom(t, drv, "vm-4", nonce, pristine, 0)
			for i, n := range ms[0].LogNames {
				if n == "8:vm-image-vm-4" {
					ms[0].LogNames[i] = "8:vm-image-vm-9"
				}
			}
			refs.LogMemory = new(driver.LogMemory)
			verdict = driver.AppraiseStartup(driver.BackendTPM, ms, nonce, refs)
			if verdict.Healthy || verdict.Class != properties.FailureImage || refs.LogMemory.Miss != "" || refs.LogMemory.Count != 0 {
				t.Fatalf("a whole log without the VM's entry: %+v, miss %q, %d events remembered",
					verdict, refs.LogMemory.Miss, refs.LogMemory.Count)
			}
		})
	}
}

// TestLogMemoryMovesOnlyForward lands two appraisals of one server that
// started from the same memory in both orders, and a copy taken before the
// memory was forgotten.
func TestLogMemoryMovesOnlyForward(t *testing.T) {
	pristine := pristineImage()
	for _, order := range []string{"short-first", "long-first"} {
		t.Run(order, func(t *testing.T) {
			drv := provision(t, driver.BackendTPM, driver.Config{ServerName: "forward", Rand: rand.Reader}, platform, pristine)
			v := &verifier{t: t, drv: drv}
			v.appraise("vm-1", pristine)
			appraise := func(vid string) *driver.LogMemory {
				if err := drv.AddVM(vid, pristine); err != nil {
					t.Fatal(err)
				}
				nonce := cryptoutil.MustNonce()
				a := v.mem.For(vid)
				refs := refsFor(drv, pristine)
				refs.Vid, refs.LogMemory = vid, a
				if verdict := driver.AppraiseStartup(driver.BackendTPM, collectFrom(t, drv, vid, nonce, pristine, a.Count), nonce, refs); !verdict.Healthy {
					t.Fatalf("%s: %+v", vid, verdict)
				}
				return a
			}
			short := appraise("vm-2") // replays one event
			long := appraise("vm-3")  // from the same memory, replays two
			if short.Count != 6 || long.Count != 7 {
				t.Fatalf("copies at %d and %d events, want 6 and 7", short.Count, long.Count)
			}
			if order == "short-first" {
				v.mem.Land(short, keepAll)
				v.mem.Land(long, keepAll)
			} else {
				v.mem.Land(long, keepAll)
				v.mem.Land(short, keepAll)
			}
			if v.mem.Count != 7 || v.mem.Bank != long.Bank {
				t.Fatalf("memory at %d events, want the longer replay's 7", v.mem.Count)
			}
			// Both entries are remembered whichever landed last: neither VM
			// needs its entry carried again.
			for _, vid := range []string{"vm-1", "vm-2", "vm-3"} {
				if verdict, a := v.appraise(vid, pristine); !verdict.Healthy || a.Miss != "" {
					t.Fatalf("%s after both landed: %+v, miss %q", vid, verdict, a.Miss)
				}
			}
		})
	}
}

// TestLogMemoryImageEntries covers what is remembered of image entries: only
// those of VMs the owner keeps, one VM's entries agreeing (a migration there
// and back) or conflicting, and nothing after Forget.
func TestLogMemoryImageEntries(t *testing.T) {
	pristine, other := pristineImage(), imageOf("another-image")
	drv := provision(t, driver.BackendTPM, driver.Config{ServerName: "entries", Rand: rand.Reader}, platform, pristine)
	held := map[string]bool{"vm-1": true, "vm-2": true}
	v := &verifier{t: t, drv: drv, keep: func(vid string) bool { return held[vid] }}
	for _, vid := range []string{"vm-2", "vm-3"} {
		if err := drv.AddVM(vid, pristine); err != nil {
			t.Fatal(err)
		}
	}
	if verdict, _ := v.appraise("vm-1", pristine); !verdict.Healthy || v.mem.Count != 7 {
		t.Fatalf("vm-1: %+v, %d events", verdict, v.mem.Count)
	}
	// vm-2's entry was replayed by vm-1's appraisal and kept; vm-3's was
	// replayed and dropped, so its first appraisal has to ask again.
	if verdict, a := v.appraise("vm-2", pristine); !verdict.Healthy || a.Miss != "" {
		t.Fatalf("vm-2, remembered: %+v, miss %q", verdict, a.Miss)
	}
	if verdict, a := v.appraise("vm-3", pristine); verdict.Healthy || a.Miss != "entry-unknown" || v.mem.Count != 7 {
		t.Fatalf("vm-3, not kept: %+v, miss %q, %d events", verdict, a.Miss, v.mem.Count)
	}
	// The whole log teaches it, without moving the count.
	held["vm-3"] = true
	nonce := cryptoutil.MustNonce()
	fresh := new(driver.LogMemory)
	refs := refsFor(drv, pristine)
	refs.Vid, refs.LogMemory = "vm-3", fresh
	if verdict := driver.AppraiseStartup(driver.BackendTPM, collectFrom(t, drv, "vm-3", nonce, pristine, 0), nonce, refs); !verdict.Healthy {
		t.Fatalf("vm-3, whole log: %+v", verdict)
	}
	v.mem.Land(fresh, v.keep)
	if verdict, a := v.appraise("vm-3", pristine); !verdict.Healthy || a.Miss != "" || v.mem.Count != 7 {
		t.Fatalf("vm-3, taught: %+v, miss %q, %d events", verdict, a.Miss, v.mem.Count)
	}

	// vm-2 leaves and comes back: a second entry with the same digest.
	drv.RemoveVM("vm-2")
	if err := drv.AddVM("vm-2", pristine); err != nil {
		t.Fatal(err)
	}
	if verdict, _ := v.appraise("vm-2", pristine); !verdict.Healthy || v.mem.Count != 8 {
		t.Fatalf("vm-2, back: %+v, %d events", verdict, v.mem.Count)
	}
	// vm-1 comes back from another image: its own appraisal refuses the
	// carried entry; replayed by a neighbour's appraisal first, it is a
	// conflict on record and refused from memory, as the whole log is.
	if err := drv.AddVM("vm-1", other); err != nil {
		t.Fatal(err)
	}
	if verdict, _ := v.appraise("vm-2", pristine); !verdict.Healthy || v.mem.Count != 9 {
		t.Fatalf("vm-2, replaying vm-1's second entry: %+v, %d events", verdict, v.mem.Count)
	}
	got, a := v.appraise("vm-1", pristine)
	if want := v.whole("vm-1", pristine); got.Healthy || a.Miss != "" || !sameVerdict(got, want) {
		t.Fatalf("vm-1, conflicting entries: %+v (miss %q), whole log %+v", got, a.Miss, want)
	}

	// A forgotten VM's entry is gone; the count and bank are not.
	v.mem.Forget("vm-2")
	if verdict, a := v.appraise("vm-2", pristine); verdict.Healthy || a.Miss != "entry-unknown" || v.mem.Count != 9 {
		t.Fatalf("vm-2, forgotten: %+v, miss %q, %d events", verdict, a.Miss, v.mem.Count)
	}
}
