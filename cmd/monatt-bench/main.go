// Command monatt-bench regenerates the tables and figures of the
// CloudMonatt paper's evaluation on the simulated cloud and prints the same
// rows/series the paper reports.
//
// Usage:
//
//	monatt-bench [-seed N] [-exp all|table1|fig4|fig5|fig6|fig7|fig9|fig10|fig11|ablation|comparison|rfa|traces|shards]
//
// The shards experiment is sized by -shards (max shard count, doubling from
// 1), -shard-tasks, -shard-freq and -shard-window; it reads the wall clock
// and runs for roughly (1.5·freq + window) per shard count, so it is not
// part of -exp all.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"cloudmonatt/internal/bench"
)

func main() {
	seed := flag.Int64("seed", 1, "simulation seed")
	exp := flag.String("exp", "all", "experiment to run (all, table1, fig4, fig5, fig6, fig7, fig9, fig10, fig11, ablation, comparison, rfa, traces, shards)")
	shards := flag.Int("shards", 8, "shards: max shard count (curve doubles 1, 2, ... up to this)")
	shardTasks := flag.Int("shard-tasks", 120000, "shards: periodic attestation streams across the fleet")
	shardServers := flag.Int("shard-servers", 48, "shards: simulated cloud servers the streams spread over")
	shardFreq := flag.Duration("shard-freq", 4*time.Second, "shards: mean per-stream attestation frequency")
	shardWindow := flag.Duration("shard-window", 8*time.Second, "shards: measured window per shard count (after a 1.5x freq warm-up)")
	flag.Parse()

	run := func(name string, f func() (string, error)) {
		if *exp != name && (*exp != "all" || name == "shards") {
			return
		}
		start := time.Now()
		out, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(out)
		fmt.Printf("  [%s regenerated in %v wall time]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	run("table1", func() (string, error) {
		r, err := bench.Table1(*seed)
		return r.Render(), err
	})
	run("fig4", func() (string, error) {
		return bench.Fig4(*seed, 200).Render(), nil
	})
	run("fig5", func() (string, error) {
		r, err := bench.Fig5(*seed, 2*time.Second)
		return r.Render(), err
	})
	run("fig6", func() (string, error) {
		r, err := bench.Fig6(*seed)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("fig7", func() (string, error) {
		r, err := bench.Fig7(*seed)
		return r.Render(), err
	})
	run("fig9", func() (string, error) {
		r, err := bench.Fig9(*seed)
		return r.Render(), err
	})
	run("fig10", func() (string, error) {
		r, err := bench.Fig10(*seed, 2*time.Minute)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("fig11", func() (string, error) {
		r, err := bench.Fig11(*seed)
		return r.Render(), err
	})
	run("ablation", func() (string, error) {
		out := bench.AblationScheduler(*seed).Render()
		bins, err := bench.AblationBins(*seed)
		if err != nil {
			return "", err
		}
		return out + "\n" + bins.Render(), nil
	})
	run("comparison", func() (string, error) {
		r, err := bench.Comparison(*seed)
		return r.Render(), err
	})
	run("rfa", func() (string, error) {
		r, err := bench.RFA(*seed)
		return r.Render(), err
	})
	run("shards", func() (string, error) {
		r, err := bench.Shards(*seed, *shardTasks, *shards, *shardServers, *shardFreq, *shardWindow)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("traces", func() (string, error) {
		r, err := bench.TraceStages(*seed, 20)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
}
