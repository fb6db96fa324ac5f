package xen

import "cloudmonatt/internal/sim"

// Segment is one uninterrupted run of a vCPU on its pCPU.
type Segment struct {
	VCPU  *VCPU
	Start sim.Time
	End   sim.Time
}

// Duration returns the segment length.
func (s Segment) Duration() sim.Time { return s.End - s.Start }

// Recorder collects run segments of selected domains. Register it with
// Hypervisor.Observe. A nil domain filter records everything.
type Recorder struct {
	domains  map[*Domain]bool
	segments []Segment
}

// NewRecorder returns a recorder limited to the given domains (all domains
// when none are given).
func NewRecorder(doms ...*Domain) *Recorder {
	r := &Recorder{}
	if len(doms) > 0 {
		r.domains = make(map[*Domain]bool, len(doms))
		for _, d := range doms {
			r.domains[d] = true
		}
	}
	return r
}

// ObserveRunSegment implements RunSegmentObserver.
func (r *Recorder) ObserveRunSegment(v *VCPU, start, end sim.Time) {
	if r.domains != nil && !r.domains[v.dom] {
		return
	}
	r.segments = append(r.segments, Segment{v, start, end})
}

// Segments returns all recorded segments in completion order.
func (r *Recorder) Segments() []Segment { return r.segments }

// Reset discards recorded segments.
func (r *Recorder) Reset() { r.segments = nil }

// MergeAdjacent coalesces segments of the same vCPU whose gap is below eps.
// The covert-channel receiver observes the *sender's* occupancy as the gaps
// in its own execution; merging removes scheduler-artifact micro-splits so a
// logical burst appears as one interval.
func MergeAdjacent(segs []Segment, eps sim.Time) []Segment {
	if len(segs) == 0 {
		return nil
	}
	out := []Segment{segs[0]}
	for _, s := range segs[1:] {
		last := &out[len(out)-1]
		if s.VCPU == last.VCPU && s.Start-last.End <= eps {
			last.End = s.End
			continue
		}
		out = append(out, s)
	}
	return out
}

// Gaps returns the idle intervals between consecutive segments — from the
// point of view of the vCPU that produced segs, the time someone else held
// the pCPU. This is how the covert-channel receiver infers the sender's CPU
// usage (paper Fig. 4).
func Gaps(segs []Segment) []Segment {
	var out []Segment
	for i := 1; i < len(segs); i++ {
		if segs[i].Start > segs[i-1].End {
			out = append(out, Segment{VCPU: segs[i].VCPU, Start: segs[i-1].End, End: segs[i].Start})
		}
	}
	return out
}
