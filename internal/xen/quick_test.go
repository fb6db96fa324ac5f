package xen

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"cloudmonatt/internal/sim"
)

// randomProgram builds a program from fuzz bytes: burst and block lengths in
// [0.1ms, 12.8ms], and by the third byte IO, a halt after an IPI to peer, a
// zero-length burst that only sends that IPI and sleeps, a yield, or a sleep.
func randomProgram(burstCode, blockCode, kindCode byte, peer **VCPU) Program {
	burst := time.Duration(int(burstCode)%128+1) * 100 * time.Microsecond
	block := time.Duration(int(blockCode)%128+1) * 100 * time.Microsecond
	n := 0
	return ProgramFunc(func(env Env, self *VCPU) Burst {
		n++
		switch kindCode % 5 {
		case 0:
			return Burst{Run: burst, IOBytes: (int(kindCode) + 1) << 12} // up to ~1 MiB
		case 1:
			return Burst{Run: burst, Halt: true, IPITo: *peer}
		case 2:
			if n%2 == 0 {
				return Burst{IPITo: *peer, Block: block}
			}
		case 3:
			return Burst{Run: burst}
		}
		return Burst{Run: burst, Block: block}
	})
}

// schedInvariant reports what is wrong with the scheduler's state between two
// events, or "": a pCPU is idle while a valid entry is queued on it, a
// running vCPU is not its pCPU's current, or a runnable vCPU has no valid
// entry on its own pCPU (two are impossible: a vCPU's token matches one
// entry at most).
func schedInvariant(hv *Hypervisor) string {
	queued := map[*VCPU]bool{}
	for _, p := range hv.pcpus {
		if v := p.current; v != nil && (v.state != StateRunning || v.pcpu != p) {
			return fmt.Sprintf("pCPU %d runs %s, %s on pCPU %d", p.id, v, v.state, v.pcpu.id)
		}
		for prio := range p.runq {
			q := &p.runq[prio]
			for i := 0; i < q.n; i++ {
				e := q.buf[(q.head+i)&(len(q.buf)-1)]
				if e.tok != e.v.tok || e.v.state != StateRunnable {
					continue // stale
				}
				switch {
				case e.v.pcpu != p:
					return fmt.Sprintf("%s is queued on pCPU %d, pinned to %d", e.v, p.id, e.v.pcpu.id)
				case p.current == nil:
					return fmt.Sprintf("pCPU %d is idle with %s queued", p.id, e.v)
				}
				queued[e.v] = true
			}
		}
	}
	for _, d := range hv.domains {
		for _, v := range d.vcpus {
			if v.state == StateRunning && v.pcpu.current != v {
				return fmt.Sprintf("%s is running but pCPU %d runs %v", v, v.pcpu.id, v.pcpu.current)
			}
			if v.state == StateRunnable && !queued[v] {
				return fmt.Sprintf("%s is runnable with no valid entry", v)
			}
		}
	}
	return ""
}

// TestQuickSchedulerInvariants runs arbitrary program mixes on two pCPUs,
// with IPIs, halts, zero-length bursts and one domain paused and resumed
// from events, and checks the scheduler's state after every event
// (schedInvariant) and its core invariants at the end: CPU time is
// conserved (runtime + idle = wall, over both pCPUs), run segments on one pCPU
// never overlap, every segment respects the timeslice, and credits stay
// within their bounds. -quickchecks scales the number of mixes.
func TestQuickSchedulerInvariants(t *testing.T) {
	f := func(specs [][3]byte, seed int64, pauseCode, resumeCode uint16) bool {
		if len(specs) == 0 {
			return true
		}
		if len(specs) > 6 {
			specs = specs[:6]
		}
		k := sim.NewKernel(seed)
		cfg := DefaultConfig()
		hv := New(k, cfg, 2)
		rec := NewRecorder()
		hv.Observe(rec)
		peers := make([]*VCPU, len(specs))
		var doms []*Domain
		for i, s := range specs {
			d := hv.NewDomain(string(rune('a'+i)), 256, i%2, randomProgram(s[0], s[1], s[2], &peers[(i+1)%len(specs)]))
			peers[i] = d.VCPUs()[0]
			doms = append(doms, d)
		}
		for _, d := range doms {
			d.WakeAll()
		}
		// On the bursts' 100 µs grid, so a pause can land on the instant a
		// burst ends, before that burst's end has fired.
		pauseAt := sim.Time(pauseCode%15000+1) * 100 * time.Microsecond
		k.At(pauseAt, func() { hv.PauseDomain(doms[0]) })
		k.At(pauseAt+sim.Time(resumeCode%5000)*100*time.Microsecond, func() { hv.ResumeDomain(doms[0]) })

		horizon := 2 * time.Second
		for k.Now() < horizon && k.Step() {
			if msg := schedInvariant(hv); msg != "" {
				t.Logf("at %v: %s", k.Now(), msg)
				return false
			}
		}

		// Conservation, on both pCPUs together.
		var used sim.Time
		for _, d := range doms {
			if d.TotalRuntime() < 0 {
				return false
			}
			used += d.TotalRuntime()
		}
		for _, p := range hv.PCPUs() {
			used += p.IdleTime()
		}
		if diff := used - 2*k.Now(); diff < -time.Microsecond || diff > time.Microsecond {
			t.Logf("conservation broken: %v vs %v", used, 2*k.Now())
			return false
		}

		// Segments sorted by start must not overlap on one pCPU and must
		// obey the slice.
		segs := append([]Segment(nil), rec.Segments()...)
		sort.Slice(segs, func(i, j int) bool { return segs[i].Start < segs[j].Start })
		var lastEnd [2]sim.Time
		for _, s := range segs {
			if s.Duration() <= 0 || s.Duration() > cfg.Timeslice {
				t.Logf("segment duration %v out of bounds", s.Duration())
				return false
			}
			p := s.VCPU.PCPU().ID()
			if s.Start < lastEnd[p] {
				t.Logf("segments overlap on pCPU %d: %v < %v", p, s.Start, lastEnd[p])
				return false
			}
			lastEnd[p] = s.End
		}

		// Credit bounds.
		for _, d := range doms {
			for _, v := range d.VCPUs() {
				if v.Credits() > cfg.CreditCap || v.Credits() < cfg.CreditFloor {
					t.Logf("credits %d out of bounds", v.Credits())
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 0.6}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickIOAccounting checks the IO device's conservation property: bytes
// served equals bytes submitted, and utilization stays in [0, 1].
func TestQuickIOAccounting(t *testing.T) {
	f := func(sizes []uint16, seed int64) bool {
		k := sim.NewKernel(seed)
		hv := New(k, DefaultConfig(), 1)
		var want uint64
		i := 0
		d := hv.NewDomain("io", 256, 0, ProgramFunc(func(env Env, self *VCPU) Burst {
			if i >= len(sizes) {
				return Burst{Done: true}
			}
			bytes := int(sizes[i])%(1<<20) + 1
			i++
			want += uint64(bytes)
			return Burst{Run: 50 * time.Microsecond, IOBytes: bytes}
		}))
		d.WakeAll()
		k.RunUntil(30 * time.Second)
		if !d.Done() {
			return false
		}
		disk := hv.Disk()
		if disk.ServedBytes() != want {
			t.Logf("served %d, submitted %d", disk.ServedBytes(), want)
			return false
		}
		u := disk.Utilization()
		return u >= 0 && u <= 1.000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
