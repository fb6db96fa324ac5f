// Command benchmark is the repository's benchmark: four named workloads
// driven from one process over the public cloudmonatt API on the in-memory
// network, measured in wall-clock time, CPU time and counts, end to end and
// — in a separate traced run — layer by layer. See README.md.
//
//	go run . -workload attest-steady -seed 1 -seconds 24 -trace 0
//	go run . -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// meta records where and how a run was made, so a trajectory of result
// files is a diff.
type meta struct {
	GitRev     string `json:"git_rev"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	// CalibRefUs is the reference-kernel pass time every time is reported
	// at (calib.go).
	CalibRefUs float64 `json:"calib_ref_us"`
}

// runResult is one invocation's full record (-out appends these).
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Meta      meta              `json:"meta"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Diag      map[string]metric `json:"diag,omitempty"`
	Rounds    []roundResult     `json:"rounds,omitempty"`

	rssMB float64 // peak resident set after the warm-up segment
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Runs []runResult `json:"runs"`
}

// gitRev is the revision run.sh saw in the checkout.
func gitRev() string {
	if rev := os.Getenv("BENCH_GIT_REV"); rev != "" {
		return rev
	}
	return "unknown"
}

func main() {
	workload := flag.String("workload", "", "one of: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "seed for the testbed and the VM/property visiting order")
	seconds := flag.Float64("seconds", 24, "wall-clock time to measure for")
	rounds := flag.Int("rounds", defaultRounds, "timed rounds (fresh testbed each)")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics instead")
	out := flag.String("out", "", "append this run's full record to a result file")
	compare := flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("usage: -compare a.json b.json"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if _, known := sizes[*workload]; !known || flag.NArg() != 0 || *seconds <= 0 || *rounds < 1 {
		flag.Usage()
		os.Exit(2)
	}

	runtime.GOMAXPROCS(procs)

	res := runResult{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Traced: *trace != 0,
		Meta: meta{GitRev: gitRev(), GoVersion: runtime.Version(), GOMAXPROCS: procs, NumCPU: runtime.NumCPU(), CalibRefUs: us(calibRef)},
	}
	var err error
	if res.Traced {
		err = tracedRun(os.Stdout, &res, "benchmark/out", fullSize)
	} else {
		err = endToEndRun(&res, *rounds)
	}
	if err != nil {
		fatal(err)
	}
	printTable(os.Stdout, &res)
	if *out != "" {
		if err := appendResult(*out, res); err != nil {
			fatal(err)
		}
	}
	if err := printResultLine(os.Stdout, &res); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// endToEndRun is the untraced run: one untimed warm-up segment of fixed
// size (rss_mb_peak is read after it), then the timed rounds, then every
// per-round statistic folded over the rounds.
func endToEndRun(res *runResult, rounds int) error {
	perRound := time.Duration(res.Seconds / float64(rounds) * float64(time.Second))
	warm, err := runRound(res.Workload, res.Seed, limit{ops: allocWindow[res.Workload]}, roundOpts{})
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	res.tally(&warm)
	_, res.rssMB = rusage()
	for i := 0; i < rounds; i++ {
		r, err := runRound(res.Workload, res.Seed, limit{d: perRound}, roundOpts{})
		if err != nil {
			return fmt.Errorf("round %d: %w", i+1, err)
		}
		res.tally(&r)
		res.Rounds = append(res.Rounds, r)
	}
	res.fold()
	return nil
}

// tally adds a round's operations and oracles to attempted/failed.
func (res *runResult) tally(r *roundResult) {
	res.Attempted += r.Units + len(r.Oracles)
	res.Failed += r.FailedOps + r.failedOracles()
}

// fold computes the end-to-end metrics from the rounds. A time metric is
// the median over every window of every round: with the host's speed taken
// out (calib.go), what is left of a neighbour is bursts, which land on a
// minority of a run's windows and leave their median alone. Where a window
// is too short for percentiles of its own (pooledPercentiles in sizes.go)
// the two latency percentiles are read off the samples of the whole run
// instead. The two allocation metrics repeat to four digits and are the
// median over rounds. A set-up lasts 5 to 400 ms, less than one scheduling
// hiccup on the short side, and a run has only as many as rounds: setup_s
// is their first quartile. README.md has the measured spread of each.
func (res *runResult) fold() {
	var windows []windowStat
	for i := range res.Rounds {
		windows = append(windows, res.Rounds[i].Windows...)
	}
	overWindows := func(pick func(*windowStat) float64) metric {
		return summarise(pickAll(windows, pick), 0.5)
	}
	overRounds := func(q float64, pick func(*roundResult) float64) metric {
		vs := make([]float64, len(res.Rounds))
		for i := range res.Rounds {
			vs[i] = pick(&res.Rounds[i])
		}
		return summarise(vs, q)
	}
	samples := int(median(pickAll(windows, func(w *windowStat) float64 { return float64(w.Samples) })))
	var pooled []float64
	if pooledPercentiles[res.Workload] {
		for i := range windows {
			pooled = append(pooled, windows[i].own...)
		}
		sort.Float64s(pooled)
		samples = len(pooled)
	}
	percentile := func(q float64, pick func(*windowStat) float64) metric {
		m := overWindows(pick)
		m.Samples = samples
		if pooled != nil {
			m.Value = quantile(pooled, q)
		}
		return m
	}
	values := map[string]metric{
		"op_ms_p50":     percentile(0.50, func(w *windowStat) float64 { return w.OpMsP50 }),
		"op_ms_p90":     percentile(0.90, func(w *windowStat) float64 { return w.OpMsP90 }),
		"ops_per_s":     overWindows(func(w *windowStat) float64 { return w.OpsPerS }),
		"cpu_ms_per_op": overWindows(func(w *windowStat) float64 { return w.CPUMsPerOp }),
		"allocs_per_op": overRounds(0.5, func(r *roundResult) float64 { return r.AllocsPerOp }),
		"kb_per_op":     overRounds(0.5, func(r *roundResult) float64 { return r.KBPerOp }),
		"rss_mb_peak":   {Value: res.rssMB}, // one reading per run
		"setup_s":       overRounds(0.25, func(r *roundResult) float64 { return r.SetupS }),
	}
	res.Metrics = map[string]metric{}
	for _, d := range endToEnd {
		m := values[d.name]
		m.Unit = d.unit
		res.Metrics[d.name] = m
	}
	unit := func(m metric, u string) metric { m.Unit = u; return m }
	res.Diag = map[string]metric{
		"diag.op_ms_p99": unit(percentile(0.99, func(w *windowStat) float64 { return w.OpMsP99 }), "ms"),
		// The host's side of the reported times: the reference kernel's pass
		// and the median operation as the wall clock read them.
		"diag.calib_pass_us":  unit(overWindows(func(w *windowStat) float64 { return w.HostSpeed * us(calibRef) }), "us"),
		"diag.op_ms_p50_wall": unit(overWindows(func(w *windowStat) float64 { return w.OpMsP50Wall }), "ms"),
		"fail_share":          {Value: float64(res.Failed) / float64(res.Attempted), Unit: "share"},
	}
}

// sortedNames lists a metric set's names in order.
func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printTable prints every metric by name with its unit, spread and sample
// count, then the oracles.
func printTable(w io.Writer, res *runResult) {
	fmt.Fprintf(w, "workload %s  seed %d  %gs  rev %s  %s  GOMAXPROCS %d of %d\n",
		res.Workload, res.Seed, res.Seconds, res.Meta.GitRev, res.Meta.GoVersion, res.Meta.GOMAXPROCS, res.Meta.NumCPU)
	for _, set := range []map[string]metric{res.Metrics, res.Diag} {
		for _, n := range sortedNames(set) {
			m := set[n]
			fmt.Fprintf(w, "  %-44s %14.4f %-6s", n, m.Value, m.Unit)
			if m.Min != 0 || m.Max != 0 {
				fmt.Fprintf(w, "  [%.4f .. %.4f]", m.Min, m.Max)
			}
			if m.Samples > 0 {
				if pooledPercentiles[res.Workload] {
					fmt.Fprintf(w, "  n=%d/run", m.Samples)
				} else {
					fmt.Fprintf(w, "  n=%d/window", m.Samples)
				}
			}
			fmt.Fprintln(w)
		}
	}
	for i, r := range res.Rounds {
		fmt.Fprintf(w, "  round %d: %d units in %d ops, %d failed", i+1, r.Units, r.Steps, r.FailedOps)
		for _, o := range r.Oracles {
			if o.Err == "" {
				fmt.Fprintf(w, "  %s ok", o.Name)
			} else {
				fmt.Fprintf(w, "  %s FAILED (%s)", o.Name, o.Err)
			}
		}
		if r.FirstErr != "" {
			fmt.Fprintf(w, "  first error: %s", r.FirstErr)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  attempted %d  failed %d\n", res.Attempted, res.Failed)
}

// printResultLine prints the one-line JSON result the driver reads: the
// declared metrics of this run's kind and nothing else.
func printResultLine(w io.Writer, res *runResult) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]mv{}}
	for n, m := range res.Metrics {
		line.Metrics[n] = mv{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// appendResult adds res to the result file at path, creating it if needed.
func appendResult(path string, res runResult) error {
	var f resultFile
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, os.ErrNotExist):
		return err
	}
	f.Runs = append(f.Runs, res)
	data, err = json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
