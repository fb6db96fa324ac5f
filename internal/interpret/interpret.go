// Package interpret implements the Property Interpretation Module of the
// Attestation Server (paper §4.1): it validates raw measurements and maps
// them to a health verdict for the requested security property. One
// interpreter per case study:
//
//   - startup integrity: TPM quote + measurement log appraisal against
//     known-good platform digests and the VM's expected image digest;
//   - runtime integrity: true task list vs. the customer's allowlist;
//   - covert-channel freedom: two-cluster analysis of the CPU-usage
//     interval histogram (two well-separated short-interval peaks ⇒ covert
//     channel; a single peak, or mass at the 30 ms default interval ⇒ benign);
//   - CPU availability: relative CPU usage vs. the SLA minimum share.
package interpret

import (
	"crypto/sha256"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/monitor"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/trust/driver"
)

// References holds the appraisal inputs for one VM's attestation.
type References = driver.Refs

// GoldenPlatform returns the reference digests of the standard platform
// stack (what a pristine CloudMonatt server measures at boot). The digests
// use the TPM's measurement function (plain SHA-256 of the content).
func GoldenPlatform() map[string][32]byte {
	out := make(map[string][32]byte)
	for _, c := range monitor.StandardPlatform() {
		out[c.Name] = sha256.Sum256(c.Data)
	}
	return out
}

// Interpreter maps validated measurements to a verdict for one custom
// property (the Attestation Server side of the paper's extension claim).
type Interpreter func(ms []properties.Measurement, nonce cryptoutil.Nonce, refs References) properties.Verdict

// Spec is one custom security property — the paper's §4 claim that a
// deployment integrates "an arbitrary number of security properties and
// monitoring mechanisms" — as one value: the measurements that evidence
// it, how a cloud server's Monitor Kernel collects them and how the
// Attestation Server appraises them. A testbed takes its specs in its
// options and hands each part to the entity that uses it; a custom
// property is backend-independent, so every cloud server offers it.
type Spec struct {
	Property properties.Property
	// Request names the custom measurement kinds the property needs.
	Request properties.Request
	// Collect gathers each of them on the cloud server.
	Collect monitor.Collector
	// Interpret appraises them on the Attestation Server.
	Interpret Interpreter
}

// Validate checks a deployment's custom properties: each names a property
// that is not built in and not specified twice, requests at least one
// measurement kind, all of them custom and none requested by another spec,
// and has both a collector and an interpreter.
func Validate(specs []Spec) error {
	props := make(map[properties.Property]bool, len(specs))
	kinds := make(map[properties.MeasurementKind]properties.Property)
	for _, s := range specs {
		switch {
		case s.Property == "":
			return fmt.Errorf("interpret: custom property with an empty name")
		case properties.Valid(s.Property):
			return fmt.Errorf("interpret: %q is built in", s.Property)
		case props[s.Property]:
			return fmt.Errorf("interpret: %q specified twice", s.Property)
		case len(s.Request.Kinds) == 0:
			return fmt.Errorf("interpret: %q maps to no measurements", s.Property)
		case s.Collect == nil:
			return fmt.Errorf("interpret: %q has no collector", s.Property)
		case s.Interpret == nil:
			return fmt.Errorf("interpret: %q has no interpreter", s.Property)
		}
		props[s.Property] = true
		for _, k := range s.Request.Kinds {
			if driver.BuiltinKind(k) {
				return fmt.Errorf("interpret: %q collects %q, a built-in measurement kind", s.Property, k)
			}
			if other, dup := kinds[k]; dup && other != s.Property {
				return fmt.Errorf("interpret: %q and %q both collect %q", other, s.Property, k)
			}
			kinds[k] = s.Property
		}
	}
	return nil
}

// Interpret dispatches to the built-in property's interpreter and stamps
// the verdict with the trust backend whose evidence it appraised.
func Interpret(p properties.Property, ms []properties.Measurement, nonce cryptoutil.Nonce, refs References) properties.Verdict {
	var v properties.Verdict
	switch p {
	case properties.StartupIntegrity:
		v = StartupIntegrity(ms, nonce, refs)
	case properties.RuntimeIntegrity:
		v = RuntimeIntegrity(ms, refs)
	case properties.CovertChannelFreedom:
		v = CovertChannel(ms)
	case properties.CPUAvailability:
		v = Availability(ms, refs)
	default:
		v = properties.Verdict{Property: p, Healthy: false, Reason: "unsupported property"}
	}
	return stamp(v, refs)
}

// Appraise runs the custom property's interpreter and stamps the verdict
// as Interpret does.
func (s *Spec) Appraise(ms []properties.Measurement, nonce cryptoutil.Nonce, refs References) properties.Verdict {
	return stamp(s.Interpret(ms, nonce, refs), refs)
}

// stamp names the trust backend whose evidence a verdict appraised, unless
// the interpreter did.
func stamp(v properties.Verdict, refs References) properties.Verdict {
	if v.Backend == "" {
		v.Backend = string(refs.Backend.OrDefault())
	}
	return v
}

func unhealthy(p properties.Property, class properties.FailureClass, reason string, details map[string]string) properties.Verdict {
	return properties.Verdict{Property: p, Healthy: false, Class: class, Reason: reason, Details: details}
}

// StartupIntegrity appraises the startup evidence (case study I,
// generalized across trust backends) with the backend's appraiser — the
// TPM measured-boot appraisal, the vTPM endorsement-chain appraisal, or
// the SEV-SNP report appraisal with its rollback floor.
func StartupIntegrity(ms []properties.Measurement, nonce cryptoutil.Nonce, refs References) properties.Verdict {
	return driver.AppraiseStartup(refs.Backend, ms, nonce, refs)
}

// RuntimeIntegrity compares the introspected (true) task list against the
// customer's allowlist (case study II). Processes the guest hides cannot
// hide here, because the list comes from hypervisor-level VMI.
func RuntimeIntegrity(ms []properties.Measurement, refs References) properties.Verdict {
	const p = properties.RuntimeIntegrity
	tl, ok := properties.Find(ms, properties.KindTaskList)
	if !ok {
		return unhealthy(p, properties.FailureRuntime, "missing task list", nil)
	}
	allowed := make(map[string]bool, len(refs.TaskAllowlist))
	for _, n := range refs.TaskAllowlist {
		allowed[n] = true
	}
	var rogue []string
	for _, task := range tl.Tasks {
		if !allowed[task] {
			rogue = append(rogue, task)
		}
	}
	if len(rogue) > 0 {
		sort.Strings(rogue)
		return unhealthy(p, properties.FailureRuntime, "unknown software running in VM",
			map[string]string{"tasks": strings.Join(rogue, ",")})
	}
	return properties.Verdict{Property: p, Healthy: true,
		Reason: fmt.Sprintf("all %d tasks match the customer allowlist", len(tl.Tasks))}
}

// HistogramAnalysis summarizes the covert-channel detector's clustering of
// an interval histogram (exported for the Fig. 5 bench and for tests).
type HistogramAnalysis struct {
	Total       uint64
	Dist        []float64 // normalized probability per bin
	Mean1       time.Duration
	Mean2       time.Duration // Mean1 <= Mean2
	Mass1       float64
	Mass2       float64
	Spread1     time.Duration // weighted std-dev within cluster 1
	Spread2     time.Duration
	Separation  time.Duration
	ValleyRatio float64 // valley density / lower peak density (1 if no valley)
	Bimodal     bool
}

// AnalyzeHistogram runs weighted two-means clustering on the interval
// distribution (the "machine learning technique to cluster covert-channel
// and benign results" of §4.4.3).
func AnalyzeHistogram(counters []uint64) HistogramAnalysis {
	var a HistogramAnalysis
	a.Dist = make([]float64, len(counters))
	for _, c := range counters {
		a.Total += c
	}
	if a.Total == 0 {
		return a
	}
	for i, c := range counters {
		a.Dist[i] = float64(c) / float64(a.Total)
	}
	// Initialize the two centroids at the extremes of observed mass.
	lo, hi := -1, -1
	for i, c := range counters {
		if c > 0 {
			if lo < 0 {
				lo = i
			}
			hi = i
		}
	}
	c1, c2 := mid(lo), mid(hi)
	for iter := 0; iter < 32; iter++ {
		var s1, s2, w1, w2 float64
		for i, p := range a.Dist {
			if p == 0 {
				continue
			}
			m := mid(i)
			if abs(m-c1) <= abs(m-c2) {
				s1 += m * p
				w1 += p
			} else {
				s2 += m * p
				w2 += p
			}
		}
		n1, n2 := c1, c2
		if w1 > 0 {
			n1 = s1 / w1
		}
		if w2 > 0 {
			n2 = s2 / w2
		}
		if n1 == c1 && n2 == c2 {
			a.Mass1, a.Mass2 = w1, w2
			break
		}
		c1, c2 = n1, n2
		a.Mass1, a.Mass2 = w1, w2
	}
	if c1 > c2 {
		c1, c2 = c2, c1
		a.Mass1, a.Mass2 = a.Mass2, a.Mass1
	}
	a.Mean1 = time.Duration(c1 * float64(time.Millisecond))
	a.Mean2 = time.Duration(c2 * float64(time.Millisecond))
	a.Separation = a.Mean2 - a.Mean1

	// Within-cluster spread: covert symbols are fixed durations, so their
	// clusters are narrow; scheduler-fragmentation noise is broad.
	var s1, s2, w1, w2 float64
	for i, p := range a.Dist {
		if p == 0 {
			continue
		}
		m := mid(i)
		if abs(m-c1) <= abs(m-c2) {
			s1 += p * (m - c1) * (m - c1)
			w1 += p
		} else {
			s2 += p * (m - c2) * (m - c2)
			w2 += p
		}
	}
	if w1 > 0 {
		a.Spread1 = time.Duration(math.Sqrt(s1/w1) * float64(time.Millisecond))
	}
	if w2 > 0 {
		a.Spread2 = time.Duration(math.Sqrt(s2/w2) * float64(time.Millisecond))
	}

	// Valley test: genuine bimodality shows a dip between the two modal
	// bins. A broad single hump split by two-means has no dip, so it must
	// not be flagged. Find the modal bin of each cluster (assignment by
	// distance to the final centroids), then the minimum density strictly
	// between them.
	m1, m2 := -1, -1
	for i, p := range a.Dist {
		if p == 0 {
			continue
		}
		if abs(mid(i)-c1) <= abs(mid(i)-c2) {
			if m1 < 0 || p > a.Dist[m1] {
				m1 = i
			}
		} else if m2 < 0 || p > a.Dist[m2] {
			m2 = i
		}
	}
	a.ValleyRatio = 1
	if m1 >= 0 && m2 >= 0 && m2 > m1+1 {
		valley := a.Dist[m1+1]
		for i := m1 + 1; i < m2; i++ {
			if a.Dist[i] < valley {
				valley = a.Dist[i]
			}
		}
		lowerPeak := a.Dist[m1]
		if a.Dist[m2] < lowerPeak {
			lowerPeak = a.Dist[m2]
		}
		if lowerPeak > 0 {
			a.ValleyRatio = valley / lowerPeak
		}
	}

	// Covert-channel signature: two *narrow* clusters with real mass,
	// separated by a genuine dip, both short — sustainable covert symbols
	// must fit between the 10 ms credit-sampling ticks, so the long cluster
	// sits well below the 30 ms default interval of benign CPU-bound VMs,
	// and fixed symbol durations keep each cluster tight.
	const maxSpread = 1200 * time.Microsecond
	a.Bimodal = a.Mass1 >= 0.15 && a.Mass2 >= 0.15 &&
		a.Separation >= 3*time.Millisecond &&
		a.Mean2 < 15*time.Millisecond &&
		a.ValleyRatio < 0.5 &&
		a.Spread1 <= maxSpread && a.Spread2 <= maxSpread
	return a
}

// mid returns the midpoint of bin i in milliseconds.
func mid(i int) float64 { return float64(i) + 0.5 }

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// BusLockRatePerSecond is the detection threshold for the memory-bus
// covert channel: locked bus operations are so disruptive that benign
// software issues only a trickle (tens per second — atomics in allocators
// and refcounts), while the [44]-style channel needs thousands per second
// to signal. Hardware bus-lock detection (e.g. Intel's) uses the same
// rate-based approach.
const BusLockRatePerSecond = 600.0

// BusAnalysis summarizes the bus-lock trace appraisal.
type BusAnalysis struct {
	Total      uint64
	RatePerSec float64
	ActiveBins int // bins carrying a meaningful share of the locks
	Flagged    bool
}

// AnalyzeBusTrace evaluates a time-binned bus-lock trace against the rate
// threshold, assuming the bins span window.
func AnalyzeBusTrace(counters []uint64, window time.Duration) BusAnalysis {
	var a BusAnalysis
	if window <= 0 {
		window = time.Second
	}
	var max uint64
	for _, c := range counters {
		a.Total += c
		if c > max {
			max = c
		}
	}
	for _, c := range counters {
		if c*4 >= max && c > 0 {
			a.ActiveBins++
		}
	}
	a.RatePerSec = float64(a.Total) / window.Seconds()
	a.Flagged = a.RatePerSec >= BusLockRatePerSecond
	return a
}

// CovertChannel interprets both covert-channel monitors (case study III
// plus the bus-lock monitor of §4.4.3's "other types of covert channels"):
// either signal yields a compromised verdict.
func CovertChannel(ms []properties.Measurement) properties.Verdict {
	const p = properties.CovertChannelFreedom
	h, ok := properties.Find(ms, properties.KindIntervalHistogram)
	if !ok {
		return unhealthy(p, properties.FailureRuntime, "missing interval histogram", nil)
	}
	a := AnalyzeHistogram(h.Counters)
	details := map[string]string{
		"peak1": fmt.Sprintf("%.1fms@%.0f%%", a.Mean1.Seconds()*1000, a.Mass1*100),
		"peak2": fmt.Sprintf("%.1fms@%.0f%%", a.Mean2.Seconds()*1000, a.Mass2*100),
	}
	if a.Bimodal {
		return unhealthy(p, properties.FailureRuntime, "bimodal CPU-usage-interval distribution indicates covert-channel modulation", details)
	}

	if bus, ok := properties.Find(ms, properties.KindBusLockTrace); ok {
		ba := AnalyzeBusTrace(bus.Counters, properties.DefaultWindow)
		details["bus-lock-rate"] = fmt.Sprintf("%.0f/s", ba.RatePerSec)
		if ba.Flagged {
			return unhealthy(p, properties.FailureRuntime, "sustained bus-lock storm indicates a memory-bus covert channel", details)
		}
	}

	if a.Total == 0 {
		return properties.Verdict{Property: p, Healthy: true, Reason: "VM idle during the detection window", Details: details}
	}
	return properties.Verdict{Property: p, Healthy: true,
		Reason: "interval distribution and bus activity consistent with benign execution", Details: details}
}

// Availability interprets the VM's relative CPU usage (case study IV).
func Availability(ms []properties.Measurement, refs References) properties.Verdict {
	const p = properties.CPUAvailability
	ct, ok := properties.Find(ms, properties.KindCPUTime)
	if !ok {
		return unhealthy(p, properties.FailureRuntime, "missing cpu-time measurement", nil)
	}
	if ct.WallTime <= 0 {
		return unhealthy(p, properties.FailureRuntime, "empty measurement window", nil)
	}
	share := float64(ct.CPUTime) / float64(ct.WallTime)
	min := refs.MinCPUShare
	if min <= 0 {
		min = 0.25
	}
	details := map[string]string{
		"share": fmt.Sprintf("%.1f%%", share*100),
		"floor": fmt.Sprintf("%.1f%%", min*100),
	}
	if share < min {
		return unhealthy(p, properties.FailureRuntime, fmt.Sprintf("relative CPU usage %.1f%% below the SLA floor %.0f%%", share*100, min*100), details)
	}
	return properties.Verdict{Property: p, Healthy: true,
		Reason: fmt.Sprintf("relative CPU usage %.1f%% meets the SLA floor", share*100), Details: details}
}
