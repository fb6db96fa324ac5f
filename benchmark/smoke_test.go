package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The smoke test runs all four workloads and the traced run at toy size. It
// exists so that a refactor which removes a symbol the benchmark imports,
// drops a metric, breaks an oracle or makes an exact count wobble fails a
// plain `go test ./...` in this directory, long before a measurement run.

// checkMetrics asserts that got holds exactly the declared metrics, each
// finite and with the declared unit.
func checkMetrics(t *testing.T, defs []metricDef, got map[string]metric) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("emitted %d metrics, declared %d", len(got), len(defs))
	}
	for _, d := range defs {
		m, ok := got[d.name]
		switch {
		case !ok:
			t.Errorf("%s: not emitted", d.name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: value %v is not finite", d.name, m.Value)
		case m.Unit != d.unit:
			t.Errorf("%s: unit %q, declared %q", d.name, m.Unit, d.unit)
		}
	}
}

// checkResultLine asserts the driver-facing line carries exactly the four
// keys and the declared metrics.
func checkResultLine(t *testing.T, res *runResult, defs []metricDef) {
	t.Helper()
	var buf bytes.Buffer
	if err := printResultLine(&buf, res); err != nil {
		t.Fatal(err)
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("result line is not one JSON object: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := line[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	var ms map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	if err := json.Unmarshal(line["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 || len(ms) != len(defs) {
		t.Errorf("result line has %d keys and %d metrics, want 4 and %d", len(line), len(ms), len(defs))
	}
}

// TestWorkloads runs each workload's counted round twice under one seed:
// the end-to-end metrics fold out of a round, no operation or oracle
// fails, and every exact count repeats to the last digit.
func TestWorkloads(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			var runs [2]*layerSet
			var rounds [2]roundResult
			for i := range runs {
				res := &runResult{Workload: name, Seed: 7}
				runs[i] = newLayerSet(toySize, time.Millisecond)
				_, r, err := countedRound(res, runs[i])
				if err != nil {
					t.Fatal(err)
				}
				rounds[i] = r
				if res.Failed != 0 || res.Attempted < toySize.tracedOps[name] {
					t.Fatalf("attempted %d, failed %d: %+v", res.Attempted, res.Failed, r)
				}
				if i > 0 {
					continue
				}
				_, res.rssMB = rusage()
				res.fold()
				checkMetrics(t, endToEnd, res.Metrics)
				for _, d := range endToEnd {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s = %v, must never be 0", d.name, res.Metrics[d.name].Value)
					}
				}
				checkResultLine(t, res, endToEnd)
			}
			for _, d := range perLayer {
				if a, b := runs[0].get(d.name), runs[1].get(d.name); d.exact && a != b {
					t.Errorf("%s is declared exact but read %v then %v under one seed", d.name, a, b)
				}
			}
			if a, b := rounds[0].AllocsPerOp, rounds[1].AllocsPerOp; math.Abs(a-b)/a > 0.01 {
				t.Errorf("allocs_per_op %v then %v: more than 1%% apart under one seed", a, b)
			}
			for _, n := range []string{"cryptoutil.signs_per_op", "cryptoutil.verifies_per_op", "ledger.appends_per_op", "obs.spans_per_op", "rpc.conn_writes_per_op"} {
				if runs[0].get(n) <= 0 {
					t.Errorf("%s = %v on %s, want > 0", n, runs[0].get(n), name)
				}
			}
			if got := runs[0].get("rpc.dials_per_op") > 0; got != (name == "churn") {
				t.Errorf("rpc.dials_per_op > 0 is %v on %s", got, name)
			}
		})
	}
}

// TestTracedRunEmitsEveryPerLayerMetric runs the whole traced run once.
func TestTracedRunEmitsEveryPerLayerMetric(t *testing.T) {
	res := &runResult{Workload: "churn", Seed: 7, Seconds: 0.3, Traced: true}
	if err := tracedRun(io.Discard, res, t.TempDir(), toySize); err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("%d of %d failed: %+v", res.Failed, res.Attempted, res.Rounds)
	}
	checkMetrics(t, perLayer, res.Metrics)
	checkResultLine(t, res, perLayer)
	for _, n := range []string{"cloudsim.customer_attest_us.steady", "cloudsim.customer_attest_us.fleet", "vclock.advance_us.fleet", "controller.launch_ms", "cryptoutil.ecdh_per_op"} {
		if res.Metrics[n].Value <= 0 {
			t.Errorf("%s = %v, want > 0", n, res.Metrics[n].Value)
		}
	}
}

// TestSkippedCanaryFails leaves the canary VM uninfected: the canary
// oracle, and only it, must then fail the round.
func TestSkippedCanaryFails(t *testing.T) {
	r, err := runRound("attest-steady", 7, limit{ops: 4}, roundOpts{skipCanary: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.failedOracles() != 1 {
		t.Fatalf("%d oracles failed, want exactly the canary: %+v", r.failedOracles(), r.Oracles)
	}
	for _, o := range r.Oracles {
		if (o.Err != "") != (o.Name == "canary") {
			t.Errorf("oracle %s: err %q", o.Name, o.Err)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and metrics.go equal.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []jm `json:"end_to_end"`
		PerLayer  []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q here", i, w.Name, workloadNames[i])
		}
	}
	same := func(kind string, js []jm, defs []metricDef) {
		if len(js) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json declares %d, metrics.go %d", kind, len(js), len(defs))
		}
		for i, d := range defs {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if js[i] != (jm{d.name, d.unit, better, d.bound}) {
				t.Errorf("%s %d: BENCHMARK.json %+v, metrics.go %+v", kind, i, js[i], d)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestCompare checks the A/A tool's verdicts on hand-made result files.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64, signs float64) string {
		path := filepath.Join(dir, name)
		for seed := int64(1); seed <= 3; seed++ {
			for _, r := range []runResult{
				{Workload: "churn", Seed: seed, Attempted: 10, Metrics: map[string]metric{"op_ms_p50": {Value: p50 + float64(seed)/100, Unit: "ms"}}},
				{Workload: "churn", Seed: seed, Traced: true, Attempted: 10, Metrics: map[string]metric{"cryptoutil.signs_per_op": {Value: signs, Unit: "count"}}},
			} {
				if err := appendResult(path, r); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	a := write("a.json", 5, 11)
	for _, c := range []struct {
		name   string
		p50    float64
		signs  float64
		wantOK bool
	}{
		{"same.json", 5, 11, true},
		{"faster.json", 4, 11, true},
		{"slower.json", 7, 11, false},
		{"count-moved.json", 5, 12, false},
	} {
		var out bytes.Buffer
		ok, err := compareFiles(&out, a, write(c.name, c.p50, c.signs))
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.wantOK {
			t.Errorf("%s: ok = %v, want %v\n%s", c.name, ok, c.wantOK, out.String())
		}
	}
}
