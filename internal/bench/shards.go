package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"cloudmonatt/internal/attestsrv"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/shard"
	"cloudmonatt/internal/wire"
)

// The shards experiment measures the sharded attestation plane at fleet
// scale: hundreds of thousands of periodic attestation streams spread over
// dozens of simulated cloud servers, split across 1/2/4/8 consistent-hash
// shards. Each shard runs the real periodic engine (the same scheduler,
// shedding and accounting the Attestation Server serves RPCs from); the
// appraisal stack below it is modeled as a fixed real-time service time, so
// the experiment measures scheduling capacity, not signature cycles. This
// experiment reads the wall clock: service times are
// real sleeps, so shard capacity — and the scaling curve — are real-time
// quantities.

// shardsServiceTime is the modeled per-appraisal service time: roughly the
// measured hot-path cost of one full appraisal (codec + signature checks)
// under the binary codec.
const shardsServiceTime = 2 * time.Millisecond

// shardsMeasure is one shard-count configuration's outcome.
type shardsMeasure struct {
	offered float64 // offered load, attestations/sec
	rate    float64 // achieved attestations/sec
	p95ms   float64 // p95 dispatch staleness, ms past deadline
	shed    float64 // shed ticks / total ticks, percent
}

// Shards runs the fleet-scale scaling curve: task streams at their mean
// frequency across doubling shard counts up to maxShards.
func Shards(seed int64, tasks, maxShards, servers int, freq, window time.Duration) (*Table, error) {
	if maxShards < 1 {
		maxShards = 1
	}
	var counts []int
	for n := 1; n <= maxShards; n *= 2 {
		counts = append(counts, n)
	}
	rows := make([]string, len(counts))
	for i, n := range counts {
		rows[i] = fmt.Sprintf("%d shard(s)", n)
	}
	cols := []string{"offered/s", "attest/s", "p95 stale ms", "shed %", "vs 1 shard"}
	t := NewTable(
		fmt.Sprintf("Sharded attestation plane: %d periodic streams, %d simulated servers (wall clock)", tasks, servers),
		"configuration", "fleet", rows, cols)

	base := 0.0
	for i, n := range counts {
		m, err := shardsRun(seed, n, tasks, servers, freq, window)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			base = m.rate
		}
		row := rows[i]
		t.Set(row, "offered/s", m.offered)
		t.Set(row, "attest/s", m.rate)
		t.Set(row, "p95 stale ms", m.p95ms)
		t.Set(row, "shed %", m.shed)
		t.Set(row, "vs 1 shard", m.rate/base)
	}
	return t, nil
}

// latSample is one dispatch batch's staleness, weighted by how many
// appraisals it covered.
type latSample struct {
	late  time.Duration
	count int
}

func shardsRun(seed int64, nShards, tasks, servers int, freq, window time.Duration) (shardsMeasure, error) {
	ring := shard.NewRing(seed, 0)
	names := make([]string, nShards)
	for i := range names {
		names[i] = fmt.Sprintf("shard-%d", i)
		ring.Join(names[i])
	}

	//lint:wallclock the fleet clock is real time: service times below are real sleeps, so capacity is a wall-clock quantity
	start := time.Now()
	now := func() time.Duration {
		//lint:wallclock see above: the engines run on the wall clock
		return time.Since(start)
	}
	appraise := func(vid, serverID string, p properties.Property) (*wire.Report, error) {
		//lint:wallclock modeled appraisal service time — a real sleep occupying a real worker slot
		time.Sleep(shardsServiceTime)
		return &wire.Report{Vid: vid, ServerID: serverID, Prop: p}, nil
	}

	engines := make(map[string]*attestsrv.FleetEngine, nShards)
	for i, name := range names {
		rng := rand.New(rand.NewSource(seed + int64(i)*7919))
		engines[name] = attestsrv.NewFleetEngine(
			// ResultBuffer 1: nothing drains results here, so keep one
			// report per stream instead of a 64-deep ring x the fleet.
			attestsrv.PeriodicConfig{Workers: 16, ServerInflight: 16, ResultBuffer: 1},
			now, rng.Int63n, appraise)
	}

	for i := 0; i < tasks; i++ {
		vid := fmt.Sprintf("vm-%06d", i)
		owner, _, ok := ring.Lookup(vid)
		if !ok {
			return shardsMeasure{}, fmt.Errorf("bench: empty ring")
		}
		srv := fmt.Sprintf("cloud-server-%d", i%servers)
		if err := engines[owner].StartRandom(vid, srv, properties.CPUAvailability, freq); err != nil {
			return shardsMeasure{}, err
		}
	}

	type counters struct{ ticks, produced, skipped int64 }
	snap := func() counters {
		var c counters
		for _, e := range engines {
			reg := e.Metrics()
			c.ticks += reg.Counter("periodic/ticks").Value()
			c.produced += reg.Counter("periodic/produced").Value()
			c.skipped += reg.Counter("periodic/skipped").Value()
		}
		return c
	}

	// Random intervals mean first dispatches ramp in over [freq/2, 3·freq/2);
	// drive the fleet through that ramp before the measured window opens so
	// the window sees steady-state load.
	warmupEnd := now() + freq + freq/2
	deadline := warmupEnd + window
	samples := make([][]latSample, nShards)
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(e *attestsrv.FleetEngine, out *[]latSample) {
			defer wg.Done()
			for {
				t := now()
				if t >= deadline {
					return
				}
				due, ok := e.NextDue()
				if !ok || due > t {
					pause := time.Millisecond
					if ok && due-t < pause {
						pause = due - t
					}
					if rest := deadline - t; rest < pause {
						pause = rest
					}
					//lint:wallclock pacing: sleep until the next real-time deadline
					time.Sleep(pause)
					continue
				}
				late := t - due
				reps := e.RunDue()
				if len(reps) > 0 && t >= warmupEnd {
					*out = append(*out, latSample{late: late, count: len(reps)})
				}
			}
		}(engines[name], &samples[i])
	}
	//lint:wallclock wait out the warm-up ramp on the same real clock the engines run on
	time.Sleep(warmupEnd - now())
	before := snap()
	measureStart := now()
	wg.Wait()
	// Overloaded configurations overrun the deadline inside their final
	// dispatch batch; count that production over the time it actually took.
	elapsed := now() - measureStart
	after := snap()

	flat := []latSample{}
	total := 0
	for _, s := range samples {
		for _, ls := range s {
			flat = append(flat, ls)
			total += ls.count
		}
	}
	sort.Slice(flat, func(a, b int) bool { return flat[a].late < flat[b].late })
	p95 := time.Duration(0)
	cum := 0
	for _, ls := range flat {
		cum += ls.count
		if float64(cum) >= 0.95*float64(total) {
			p95 = ls.late
			break
		}
	}

	m := shardsMeasure{
		offered: float64(tasks) / freq.Seconds(),
		rate:    float64(after.produced-before.produced) / elapsed.Seconds(),
		p95ms:   float64(p95) / float64(time.Millisecond),
	}
	if dt := after.ticks - before.ticks; dt > 0 {
		m.shed = float64(after.skipped-before.skipped) / float64(dt) * 100
	}
	return m, nil
}
