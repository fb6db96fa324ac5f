package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// A/A and A/B tooling: -compare a.json b.json reads two result files (each
// the -out of a set of runs), and for every workload × end-to-end metric
// prints both medians over runs, both spreads, the relative difference and
// the bound. It reports failure when b is worse than a beyond a bound, when
// either side recorded a failed operation, or when an exact count of the
// traced runs differs for the same seed.

func readResults(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// spread is the distance between the first and third quartile as a share
// of the median, with the quartiles Python's statistics.quantiles(vs, n=4)
// gives (the benchmark contract's definition), or min to max with fewer
// than four values.
func spread(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	med := quantile(s, 0.5)
	if med == 0 {
		return 0
	}
	m := len(s)
	if m < 4 {
		return (s[m-1] - s[0]) / med
	}
	quartile := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / med
}

// values collects one metric of one workload over a file's runs.
func values(f resultFile, workload, name string, traced bool) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Traced == traced {
			out = append(out, m.Value)
		}
	}
	return out
}

func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-14s %-14s %12s %8s %12s %8s %8s %6s\n", "workload", "metric", "a median", "spread", "b median", "spread", "worse", "bound")
	for _, wl := range workloadNames {
		for _, d := range endToEnd {
			va, vb := values(a, wl, d.name, false), values(b, wl, d.name, false)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if d.higher {
				worse = -worse
			}
			verdict := ""
			if worse > d.bound {
				verdict = "  BEYOND BOUND"
				ok = false
			}
			fmt.Fprintf(w, "%-14s %-14s %12.4f %7.1f%% %12.4f %7.1f%% %+7.1f%% %5.0f%%%s\n",
				wl, d.name, ma, spread(va)*100, mb, spread(vb)*100, worse*100, d.bound*100, verdict)
		}
	}
	for _, f := range []struct {
		path string
		rf   resultFile
	}{{pathA, a}, {pathB, b}} {
		for _, r := range f.rf.Runs {
			if r.Failed > 0 {
				fmt.Fprintf(w, "%s: %s seed %d: %d of %d failed\n", f.path, r.Workload, r.Seed, r.Failed, r.Attempted)
				ok = false
			}
		}
	}
	if !compareExact(w, a, b) {
		ok = false
	}
	return ok, nil
}

// compareExact checks the exact counts of traced runs that share a
// workload and a seed: they must be identical, not merely close.
func compareExact(w io.Writer, a, b resultFile) bool {
	same, pairs := true, 0
	for _, ra := range a.Runs {
		for _, rb := range b.Runs {
			if !ra.Traced || !rb.Traced || ra.Workload != rb.Workload || ra.Seed != rb.Seed {
				continue
			}
			pairs++
			for _, d := range perLayer {
				if d.exact && ra.Metrics[d.name].Value != rb.Metrics[d.name].Value {
					fmt.Fprintf(w, "exact count differs: %s seed %d %s: %v vs %v\n",
						ra.Workload, ra.Seed, d.name, ra.Metrics[d.name].Value, rb.Metrics[d.name].Value)
					same = false
				}
			}
		}
	}
	if pairs > 0 && same {
		fmt.Fprintf(w, "exact counts identical across %d traced run pairs\n", pairs)
	}
	return same
}
