package bench

import (
	"strings"
	"testing"
	"time"

	"cloudmonatt/internal/workload"
)

func TestFig4Shape(t *testing.T) {
	r := Fig4(1, 150)
	if r.BitsSent != 150 {
		t.Fatalf("sent %d bits, want 150", r.BitsSent)
	}
	if r.BandwidthBps < 80 || r.BandwidthBps > 400 {
		t.Fatalf("bandwidth %.0f bps outside the paper's order of magnitude", r.BandwidthBps)
	}
	if r.BitErrorRate > 0.15 {
		t.Fatalf("BER %.2f too high", r.BitErrorRate)
	}
	if len(r.Trace.X) < 100 {
		t.Fatalf("trace has only %d points", len(r.Trace.X))
	}
	if !strings.Contains(r.Render(), "Figure 4") {
		t.Fatal("render missing title")
	}
}

func TestFig5Shape(t *testing.T) {
	r, err := Fig5(1, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !r.CovertFlagged {
		t.Fatal("covert pattern not flagged")
	}
	if r.BenignFlagged {
		t.Fatal("benign pattern false-positive")
	}
	// Two peaks near the 3 ms and 7 ms symbols.
	if r.CovertPeaks[0] > 5 || r.CovertPeaks[1] < 5 || r.CovertPeaks[1] > 12 {
		t.Fatalf("covert peaks at %.1f/%.1f ms", r.CovertPeaks[0], r.CovertPeaks[1])
	}
	if len(r.Covert.X) != 30 || len(r.Benign.X) != 30 {
		t.Fatal("histograms are not 30-bin")
	}
}

func TestFig6Shape(t *testing.T) {
	r, err := Fig6(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, victim := range workload.VictimNames {
		row := r.Cells[victim]
		if row["idle"] < 0.99 || row["idle"] > 1.01 {
			t.Errorf("%s idle baseline %.2f, want 1.0", victim, row["idle"])
		}
		// I/O-bound co-tenants barely hurt.
		for _, c := range []string{"file", "stream", "mail"} {
			if row[c] > 1.5 {
				t.Errorf("%s vs %s slowdown %.2f, want ~1x", victim, c, row[c])
			}
		}
		// CPU-bound co-tenants roughly double execution time.
		for _, c := range []string{"database", "web", "app"} {
			if row[c] < 1.4 || row[c] > 2.8 {
				t.Errorf("%s vs %s slowdown %.2f, want ~2x", victim, c, row[c])
			}
		}
		// The availability attack degrades by an order of magnitude.
		if row["cpu_avail"] < 8 {
			t.Errorf("%s vs cpu_avail slowdown %.2f, want >= 8x", victim, row["cpu_avail"])
		}
		// And the attack hurts much more than fair contention.
		if row["cpu_avail"] < 3*row["database"] {
			t.Errorf("%s: attack (%.1fx) not clearly worse than fair contention (%.1fx)",
				victim, row["cpu_avail"], row["database"])
		}
	}
}

func TestFig7Shape(t *testing.T) {
	r, err := Fig7(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, victim := range workload.VictimNames {
		v := r.Victim.Cells[victim]
		a := r.Attacker.Cells[victim]
		if v["idle"] < 0.9 {
			t.Errorf("%s solo share %.2f, want ~1", victim, v["idle"])
		}
		if v["database"] < 0.35 || v["database"] > 0.65 {
			t.Errorf("%s vs database share %.2f, want ~0.5", victim, v["database"])
		}
		if v["cpu_avail"] > 0.15 {
			t.Errorf("%s under attack share %.2f, want < 0.15", victim, v["cpu_avail"])
		}
		if a["cpu_avail"] < 0.75 {
			t.Errorf("attacker share %.2f under attack, want > 0.75", a["cpu_avail"])
		}
		// Shares never exceed 1 and are non-negative.
		for _, c := range CoTenants {
			if v[c] < 0 || v[c] > 1.01 || a[c] < 0 || a[c] > 1.01 {
				t.Errorf("%s/%s share out of range: v=%.2f a=%.2f", victim, c, v[c], a[c])
			}
		}
	}
}

func TestFig9Shape(t *testing.T) {
	r, err := Fig9(1)
	if err != nil {
		t.Fatal(err)
	}
	if r.AttestationShare < 0.08 || r.AttestationShare > 0.35 {
		t.Fatalf("attestation share %.2f outside the paper's ~20%% band", r.AttestationShare)
	}
	cirrosSmall := r.Cells["cirros-small"]
	ubuntuLarge := r.Cells["ubuntu-large"]
	var totC, totU float64
	for _, st := range LaunchStages {
		if cirrosSmall[st] <= 0 || ubuntuLarge[st] <= 0 {
			t.Fatalf("stage %s missing", st)
		}
		totC += cirrosSmall[st]
		totU += ubuntuLarge[st]
	}
	if totU <= totC {
		t.Fatalf("ubuntu-large launch (%.1fs) not slower than cirros-small (%.1fs)", totU, totC)
	}
	if ubuntuLarge["spawning"] <= cirrosSmall["spawning"] {
		t.Fatal("spawning does not scale with image/flavor")
	}
	if totU < 2 || totU > 8 {
		t.Fatalf("total launch %.1fs outside the paper's range", totU)
	}
}

func TestFig10Shape(t *testing.T) {
	r, err := Fig10(1, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for _, svc := range workload.ServiceNames {
		for _, freq := range []string{"1min", "10s", "5s"} {
			rel := r.Cells[svc][freq]
			// Paper: no performance degradation from periodic attestation.
			if rel < 0.93 || rel > 1.07 {
				t.Errorf("%s at %s: relative performance %.3f, want ~1.0", svc, freq, rel)
			}
		}
		if r.Cells[svc]["no attest"] != 1.0 {
			t.Errorf("%s baseline not normalized: %.3f", svc, r.Cells[svc]["no attest"])
		}
	}
}

func TestFig11Shape(t *testing.T) {
	r, err := Fig11(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, fl := range []string{"small", "medium", "large"} {
		term := r.Reaction.Cells["termination"][fl]
		susp := r.Reaction.Cells["suspension"][fl]
		mig := r.Reaction.Cells["migration"][fl]
		if !(term < susp && susp < mig) {
			t.Errorf("%s: reaction times not ordered: term=%.1f susp=%.1f mig=%.1f", fl, term, susp, mig)
		}
		for _, resp := range []string{"termination", "suspension", "migration"} {
			if att := r.Attestation.Cells[resp][fl]; att < 0.5 || att > 5 {
				t.Errorf("%s/%s attestation time %.1fs implausible", resp, fl, att)
			}
		}
	}
	// Migration scales with flavor.
	if r.Reaction.Cells["migration"]["large"] <= r.Reaction.Cells["migration"]["small"] {
		t.Error("large-VM migration not slower than small")
	}
}

func TestTable1AllAPIsWork(t *testing.T) {
	r, err := Table1(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("%d rows, want 4", len(r.Rows))
	}
	for _, row := range r.Rows {
		if !row.OK {
			t.Errorf("%s failed: %s", row.API, row.Detail)
		}
	}
	if !strings.Contains(r.Render(), "runtime_attest_periodic") {
		t.Fatal("render incomplete")
	}
}

func TestAblationScheduler(t *testing.T) {
	r := AblationScheduler(1)
	if len(r.Variants) != 3 {
		t.Fatalf("variants: %v", r.Variants)
	}
	// Default credit1: both attacks work.
	if r.VictimShare[0] > 0.15 {
		t.Errorf("default: victim share %.2f, attack should starve it", r.VictimShare[0])
	}
	if r.CovertBER[0] > 0.15 {
		t.Errorf("default: covert BER %.2f, channel should work", r.CovertBER[0])
	}
	// No-BOOST: the attacks survive (UNDER still preempts the OVER victim) —
	// the finding the ablation documents.
	if r.VictimShare[1] > 0.3 {
		t.Errorf("no-boost: victim share %.2f; expected the attack to largely survive", r.VictimShare[1])
	}
	// Exact accounting: the availability attack collapses — the victim gets
	// a fair share back.
	if r.VictimShare[2] < 0.3 {
		t.Errorf("exact accounting: victim share %.2f, defense should restore fairness", r.VictimShare[2])
	}
}

func TestAblationBins(t *testing.T) {
	r, err := AblationBins(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Bins) == 0 {
		t.Fatal("no ablation points")
	}
	// Full resolution detects without false positives.
	if !r.CovertDetected[0] || r.BenignFlagged[0] {
		t.Fatalf("30-bin detector broken: %+v", r)
	}
	// The coarsest quantization (3 bins) must lose the two-peak structure.
	last := len(r.Bins) - 1
	if r.CovertDetected[last] {
		t.Errorf("detector still claims detection at %d bins; expected degradation", r.Bins[last])
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("T", "r", "x", []string{"a"}, []string{"c1", "c2"})
	tb.Set("a", "c1", 1.5)
	tb.Set("b", "c2", 2.5) // new row via Set
	out := tb.Render()
	if !strings.Contains(out, "c1") || !strings.Contains(out, "b") {
		t.Fatalf("render: %s", out)
	}
}

func TestComparisonBaselineVsCloudMonatt(t *testing.T) {
	r, err := Comparison(1)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][2]bool{ // threat -> (baseline, cloudmonatt)
		"boot-tamper":        {true, true},
		"visible-malware":    {true, true},
		"rootkit":            {false, true},
		"bus-covert-channel": {false, true},
		"covert-channel":     {false, true},
		"cpu-starvation":     {false, true},
	}
	for i, th := range r.Threats {
		w := want[th]
		if r.Baseline[i] != w[0] {
			t.Errorf("%s: baseline detected=%v, want %v", th, r.Baseline[i], w[0])
		}
		if r.CloudMonat[i] != w[1] {
			t.Errorf("%s: cloudmonatt detected=%v, want %v", th, r.CloudMonat[i], w[1])
		}
	}
	if !strings.Contains(r.Render(), "MISSED") {
		t.Fatal("render incomplete")
	}
}

func TestRFAShape(t *testing.T) {
	r, err := RFA(1)
	if err != nil {
		t.Fatal(err)
	}
	idx := map[string]int{}
	for i, co := range r.Cotenants {
		idx[co] = i
	}
	// RFA collapses victim throughput well below fair contention.
	if r.VictimReqPerS[idx["rfa"]] > r.VictimReqPerS[idx["cpu-hog"]]/2 {
		t.Errorf("RFA victim rate %.0f not clearly below fair contention %.0f",
			r.VictimReqPerS[idx["rfa"]], r.VictimReqPerS[idx["cpu-hog"]])
	}
	// The attacker harvests more CPU than a fair hog could take.
	if r.CotenantShare[idx["rfa"]] < r.CotenantShare[idx["cpu-hog"]]+0.2 {
		t.Errorf("RFA attacker share %.2f vs fair hog %.2f — nothing freed",
			r.CotenantShare[idx["rfa"]], r.CotenantShare[idx["cpu-hog"]])
	}
	// The disk becomes the victim's bottleneck.
	if r.DiskUtil[idx["rfa"]] < 0.5 {
		t.Errorf("disk util %.2f under RFA, expected the bottleneck to shift", r.DiskUtil[idx["rfa"]])
	}
	// CloudMonatt's availability property flags RFA but not benign states.
	if !r.Flagged[idx["rfa"]] {
		t.Error("RFA not flagged by the availability property")
	}
	if r.Flagged[idx["idle"]] || r.Flagged[idx["cpu-hog"]] {
		t.Errorf("benign co-tenants flagged: %+v", r.Flagged)
	}
}
