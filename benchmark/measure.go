package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"cloudmonatt/internal/rpc"
)

// metric is one reported value: the median over the windows of all rounds
// for a time, a quantile over rounds for the rest (runResult.fold), with Min
// and Max over the same readings as the spread. Samples is how many
// per-operation samples stood behind a window's percentile. Every time is at
// the reference speed (calib.go).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Min     float64 `json:"min,omitempty"`
	Max     float64 `json:"max,omitempty"`
	Samples int     `json:"samples,omitempty"`
}

// windowStat is one window of a timed region: a stretch of it long enough
// for percentiles of its own (sizes.go), read at the reference speed through
// the kernel passes inside it. HostSpeed is the window's wall-clock length
// over its length at the reference speed (1 on the quiet reference box, 1.2
// to 1.9 in its slow phases); OpMsP50Wall is the median sample as the wall
// clock read it.
type windowStat struct {
	Samples     int     `json:"samples"`
	HostSpeed   float64 `json:"host_speed"`
	OpMsP50     float64 `json:"op_ms_p50"`
	OpMsP90     float64 `json:"op_ms_p90"`
	OpMsP99     float64 `json:"op_ms_p99"`
	OpsPerS     float64 `json:"ops_per_s"`
	CPUMsPerOp  float64 `json:"cpu_ms_per_op"`
	OpMsP50Wall float64 `json:"op_ms_p50_wall"`

	// own is the window's latency samples at the reference speed, sorted,
	// for the workloads whose percentiles pool them over the run.
	own []float64
}

// roundResult is one round: a fresh testbed, its set-up, one timed region
// and the oracles after it. The round's own time statistics are the medians
// over its windows.
type roundResult struct {
	Units     int      `json:"units"`
	Steps     int      `json:"steps"`
	FailedOps int      `json:"failed_ops"`
	FirstErr  string   `json:"first_err,omitempty"`
	Oracles   []oracle `json:"oracles"`

	SetupS      float64 `json:"setup_s"`
	WallS       float64 `json:"wall_s"`
	OpMsP50     float64 `json:"op_ms_p50"`
	OpMsP90     float64 `json:"op_ms_p90"`
	OpMsP99     float64 `json:"op_ms_p99"`
	OpsPerS     float64 `json:"ops_per_s"`
	CPUMsPerOp  float64 `json:"cpu_ms_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	KBPerOp     float64 `json:"kb_per_op"`
	VirtualMs   float64 `json:"virtual_ms_per_op"`

	// CalibUs is the median of the round's kernel passes, HostSpeed that
	// over calibRef (the set-up is read through it).
	CalibUs   float64      `json:"calib_pass_us"`
	HostSpeed float64      `json:"host_speed"`
	Windows   []windowStat `json:"windows"`
}

// failedOracles counts the oracles that reported an error.
func (r *roundResult) failedOracles() int {
	n := 0
	for _, o := range r.Oracles {
		if o.Err != "" {
			n++
		}
	}
	return n
}

// limit bounds a timed region: a fixed op count when ops > 0 (traced
// rounds, for exact counts), a wall-clock budget otherwise.
type limit struct {
	ops int
	d   time.Duration
}

// rusage reads the process's user+system CPU time and its peak resident
// set size in MiB (zeros if the kernel refuses, which Linux does not).
func rusage() (cpu time.Duration, peakRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// roundOpts is what only some rounds need; the zero value is a plain
// untraced round.
type roundOpts struct {
	// network and rec are the traced run's counting network and span
	// recorder.
	network rpc.Network
	rec     *recorder
	// before and after bracket the timed region, after set-up and before
	// the oracles: the traced run snapshots the program's counters there.
	before, after func(*bed)
	// skipCanary leaves the canary VM uninfected (smoke test only): the
	// canary oracle must then fail.
	skipCanary bool
}

// segment is the stretch of a timed region between two passes of the
// reference kernel: calibEvery of the workload's operations, or one
// operation when it takes longer than that.
type segment struct {
	at        time.Duration // where the segment starts, in the region's own time
	wall, cpu time.Duration // of the operations alone: kernel passes are outside
	lo, hi    int           // its samples are samples[lo:hi]
	units     int
}

// runRound builds a fresh testbed, runs the workload's timed region on it
// and checks the round.
func runRound(name string, seed int64, lim limit, o roundOpts) (roundResult, error) {
	var r roundResult
	t0 := time.Now()
	b, err := setUp(name, seed, o.network, o.rec)
	setup := time.Since(t0)
	if err != nil {
		return r, err
	}
	appraisalsBefore, err := b.appraisals()
	if err != nil {
		return r, err
	}
	if o.before != nil {
		o.before(b)
	}
	cal := newCalibrator()
	// passes[k] opens segs[k]; one more pass closes the region.
	passes := make([]float64, 0, 256)
	segs := make([]segment, 0, 256)
	// Start every timed region from a collected heap, so a round does not
	// inherit the garbage of the set-up before it.
	runtime.GC()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	v0 := b.tb.Clock.Now()
	var samples []float64
	var elapsed time.Duration // of the segments closed so far
	allocUnits, allocOps := 0, allocWindow[name]

	passes = append(passes, cal.reading(0))
	sg := segment{}
	cpuStart, _ := rusage()
	segStart := time.Now()
	for i := 0; ; i++ {
		now := time.Now()
		done := i >= lim.ops
		if lim.ops == 0 {
			done = elapsed+now.Sub(segStart) >= lim.d
		}
		if done || now.Sub(segStart) >= calibEvery {
			cpuEnd, _ := rusage()
			sg.wall, sg.cpu, sg.hi = now.Sub(segStart), cpuEnd-cpuStart, len(samples)
			segs = append(segs, sg)
			elapsed += sg.wall
			passes = append(passes, cal.reading(sg.wall))
			if done {
				break
			}
			sg = segment{at: elapsed, lo: len(samples)}
			cpuStart, _ = rusage()
			segStart = time.Now()
			now = segStart
		}
		units, err := b.op(warmupOps + i)
		opMs := ms(time.Since(now))
		r.Steps++
		r.Units += units
		sg.units += units
		if err != nil {
			r.FailedOps++
			if r.FirstErr == "" {
				r.FirstErr = err.Error()
			}
		}
		if units > 0 {
			samples = append(samples, opMs/float64(units))
		}
		if i+1 == allocOps {
			runtime.ReadMemStats(&ms1)
			allocUnits = r.Units
		}
	}
	virtual := b.tb.Clock.Now() - v0
	if allocUnits == 0 { // the round ended inside the allocation window
		runtime.ReadMemStats(&ms1)
		allocUnits = r.Units
	}
	if o.after != nil {
		o.after(b)
	}

	// A region bounded by time is cut into the workload's windows; one
	// bounded by an op count is one window.
	n, width := 1, elapsed+1
	if lim.ops == 0 {
		n = windowsPerRound[name]
		width = lim.d / time.Duration(n)
	}
	for w, k := 0, 0; w < n; w++ {
		first := k
		for k < len(segs) && (w == n-1 || segs[k].at < time.Duration(w+1)*width) {
			k++
		}
		if k == first {
			continue
		}
		if ws, ok := windowOf(segs[first:k], passes[first:k+1], samples); ok {
			r.Windows = append(r.Windows, ws)
		}
	}

	r.CalibUs = median(passes)
	r.HostSpeed = r.CalibUs / us(calibRef)
	r.SetupS = setup.Seconds() / r.HostSpeed
	r.WallS = elapsed.Seconds()
	over := func(pick func(*windowStat) float64) float64 { return median(pickAll(r.Windows, pick)) }
	r.OpMsP50 = over(func(w *windowStat) float64 { return w.OpMsP50 })
	r.OpMsP90 = over(func(w *windowStat) float64 { return w.OpMsP90 })
	r.OpMsP99 = over(func(w *windowStat) float64 { return w.OpMsP99 })
	r.OpsPerS = over(func(w *windowStat) float64 { return w.OpsPerS })
	r.CPUMsPerOp = over(func(w *windowStat) float64 { return w.CPUMsPerOp })
	au := math.Max(float64(allocUnits), 1)
	r.AllocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / au
	r.KBPerOp = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / au
	r.VirtualMs = ms(virtual) / math.Max(float64(r.Units), 1)

	r.Oracles = b.checkRound(appraisalsBefore, r.Units, o.skipCanary)
	return r, nil
}

// windowOf folds the segments of one window, the kernel passes around them
// (passes[k] opens segs[k], passes[k+1] closes it) and their samples into
// the window's statistics. Each segment is read at the reference speed
// through its own two passes: the host's speed also flickers within a
// window, and a window-wide factor would leave that flicker in the upper
// percentiles. A window in which no unit of work completed has no
// statistics.
func windowOf(segs []segment, passes, samples []float64) (windowStat, bool) {
	var wall, cpu, refWall, refCPU float64 // ms; ref* at the reference speed
	var own, ownWall []float64
	units := 0
	for k, sg := range segs {
		speed := (passes[k] + passes[k+1]) / 2 / us(calibRef)
		w, c := ms(sg.wall), ms(sg.cpu)
		wall, cpu, refWall, refCPU = wall+w, cpu+c, refWall+w/speed, refCPU+c/speed
		units += sg.units
		for _, v := range samples[sg.lo:sg.hi] {
			own, ownWall = append(own, v/speed), append(ownWall, v)
		}
	}
	if units == 0 {
		return windowStat{}, false
	}
	sort.Float64s(own)
	return windowStat{
		Samples:     len(own),
		HostSpeed:   wall / refWall,
		OpMsP50:     quantile(own, 0.50),
		OpMsP90:     quantile(own, 0.90),
		OpMsP99:     quantile(own, 0.99),
		OpsPerS:     float64(units) / (refWall / 1000),
		CPUMsPerOp:  refCPU / float64(units),
		OpMsP50Wall: median(ownWall),
		own:         own,
	}, true
}

// pickAll reads one statistic off every window.
func pickAll(ws []windowStat, pick func(*windowStat) float64) []float64 {
	vs := make([]float64, len(ws))
	for i := range ws {
		vs[i] = pick(&ws[i])
	}
	return vs
}

// quantile reads the q-quantile of sorted by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// median returns the median of vs (not necessarily sorted).
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// summarise folds repeated readings of one statistic into a metric: their
// q-quantile, with min and max as the spread.
func summarise(vs []float64, q float64) metric {
	if len(vs) == 0 {
		return metric{}
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return metric{Value: quantile(s, q), Min: s[0], Max: s[len(s)-1]}
}
