package bench

import (
	"fmt"
	"time"

	"cloudmonatt/internal/attack"
	"cloudmonatt/internal/interpret"
	"cloudmonatt/internal/monitor"
	"cloudmonatt/internal/sim"
	"cloudmonatt/internal/workload"
	"cloudmonatt/internal/xen"
)

// Fig4Result reproduces Fig. 4: the sender VM's CPU usage as observed by
// the receiver VM (interval length over time), plus the channel quality.
type Fig4Result struct {
	// Trace is the receiver-observed sender occupancy: X = time (s),
	// Y = interval length (ms).
	Trace Series
	// BandwidthBps is the achieved covert-channel bandwidth.
	BandwidthBps float64
	// BitErrorRate is the decode error against the transmitted message.
	BitErrorRate float64
	// BitsSent is the number of transmitted symbols.
	BitsSent int
}

// Fig4 runs the CPU covert channel (paper §4.4.1) for the given number of
// message bits and returns the receiver's view.
func Fig4(seed int64, nbits int) Fig4Result {
	if nbits <= 0 {
		nbits = 200
	}
	k := sim.NewKernel(seed)
	hv := xen.New(k, xen.DefaultConfig(), 1)
	var bits []attack.Bit
	for i := 0; i < nbits; i++ {
		bits = append(bits, attack.Bit((i*5+i/3)%2))
	}
	sender := attack.NewCovertSender(bits, false)
	receiver := hv.NewDomain("receiver", 256, 0, workload.Spinner(200*time.Microsecond))
	victim := hv.NewDomain("victim", 256, 0, sender)
	rec := xen.NewRecorder(receiver)
	hv.Observe(rec)
	receiver.WakeAll()
	victim.WakeAll()
	k.RunUntil(sim.Time(nbits) * 12 * time.Millisecond)

	merged := xen.MergeAdjacent(rec.Segments(), 300*time.Microsecond)
	gaps := xen.Gaps(merged)
	res := Fig4Result{
		Trace: Series{Name: "sender CPU usage (receiver view)", XLabel: "time (s)", YLabel: "interval (ms)"},
	}
	for _, g := range gaps {
		res.Trace.X = append(res.Trace.X, g.Start.Seconds())
		res.Trace.Y = append(res.Trace.Y, g.Duration().Seconds()*1000)
	}
	done, ok := victim.DoneAt()
	if !ok {
		done = k.Now()
	}
	res.BitsSent = sender.SentCount()
	res.BandwidthBps = sender.Bandwidth(done)
	res.BitErrorRate = attack.BitErrorRate(bits, sender.DecodeGaps(gaps))
	return res
}

// Fig5Result reproduces Fig. 5: the probability distribution of CPU-usage
// intervals for a covert-channel sender vs. a benign VM, measured through
// the 30 Trust Evidence Registers, and the detector's decisions.
type Fig5Result struct {
	Covert Series // X = bin upper edge (ms), Y = probability
	Benign Series
	// Detector outcomes (the paper's clustering step, §4.4.3).
	CovertFlagged bool
	BenignFlagged bool
	CovertPeaks   [2]float64 // cluster means (ms)
}

// Fig5 measures both scenarios with the Performance Monitor Unit feeding
// the Trust Evidence Registers, exactly the monitoring path of §4.4.2.
func Fig5(seed int64, window time.Duration) (Fig5Result, error) {
	if window <= 0 {
		window = 2 * time.Second
	}
	run := func(covert bool) ([]uint64, error) {
		k := sim.NewKernel(seed)
		hv := xen.New(k, xen.DefaultConfig(), 1)
		mon, _, err := newTPMMonitor(hv, monitor.StandardPlatform())
		if err != nil {
			return nil, err
		}
		var prog xen.Program
		if covert {
			var bits []attack.Bit
			for i := 0; i < 64; i++ {
				bits = append(bits, attack.Bit(i%2))
			}
			prog = attack.NewCovertSender(bits, true)
		} else {
			prog = workload.Spinner(50 * time.Millisecond)
		}
		co := workload.Spinner(200 * time.Microsecond)
		if !covert {
			// The benign comparison VM shares with an equal CPU-bound
			// co-tenant (the paper's "benign pattern" shows the default
			// 30 ms interval under contention).
			co = workload.Spinner(50 * time.Millisecond)
		}
		target := hv.NewDomain("target", 256, 0, prog)
		other := hv.NewDomain("other", 256, 0, co)
		if err := mon.AddVM(&monitor.VM{Vid: "target", Domain: target}); err != nil {
			return nil, err
		}
		other.WakeAll()
		target.WakeAll()
		k.RunUntil(200 * time.Millisecond)
		if err := mon.StartIntervalWatch("target"); err != nil {
			return nil, err
		}
		k.RunUntil(k.Now() + window)
		meas, err := mon.CollectIntervalHistogram("target")
		if err != nil {
			return nil, err
		}
		return meas.Counters, nil
	}

	covert, err := run(true)
	if err != nil {
		return Fig5Result{}, err
	}
	benign, err := run(false)
	if err != nil {
		return Fig5Result{}, err
	}
	res := Fig5Result{
		Covert: histogramSeries("covert-channel pattern", covert),
		Benign: histogramSeries("benign pattern", benign),
	}
	ca := interpret.AnalyzeHistogram(covert)
	ba := interpret.AnalyzeHistogram(benign)
	res.CovertFlagged = ca.Bimodal
	res.BenignFlagged = ba.Bimodal
	res.CovertPeaks = [2]float64{ca.Mean1.Seconds() * 1000, ca.Mean2.Seconds() * 1000}
	return res, nil
}

func histogramSeries(name string, counters []uint64) Series {
	s := Series{Name: name, XLabel: "interval (ms)", YLabel: "probability"}
	var total uint64
	for _, c := range counters {
		total += c
	}
	for i, c := range counters {
		s.X = append(s.X, float64(i+1))
		if total > 0 {
			s.Y = append(s.Y, float64(c)/float64(total))
		} else {
			s.Y = append(s.Y, 0)
		}
	}
	return s
}

// Render formats the figure for the terminal.
func (r Fig4Result) Render() string {
	head := fmt.Sprintf("Figure 4: cross-VM covert information leakage — %d bits, %.0f bps, BER %.3f",
		r.BitsSent, r.BandwidthBps, r.BitErrorRate)
	return RenderSeries(head, r.Trace)
}

// Render formats the figure for the terminal.
func (r Fig5Result) Render() string {
	head := fmt.Sprintf("Figure 5: interval distributions — covert flagged=%v (peaks %.1f/%.1f ms), benign flagged=%v",
		r.CovertFlagged, r.CovertPeaks[0], r.CovertPeaks[1], r.BenignFlagged)
	return RenderSeries(head, r.Covert, r.Benign)
}
