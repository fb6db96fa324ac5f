package attestsrv

// Shard-churn handoff race: two standalone periodic engines play two shards
// of a ring while ownership flips under live dispatch. The invariants under
// -race: every armed stream survives every handoff on exactly one engine
// (none lost, none double-armed), and both engines' tick accounting stays
// exact — an exported in-flight appraisal must land as a stopped-discard,
// never as a produced report on the wrong shard and never as a leak.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/shard"
	"cloudmonatt/internal/wire"
)

func TestShardChurnHandoffRace(t *testing.T) {
	// One physical core serializes goroutines enough to hide interleavings;
	// force real preemption so exports race actual in-flight dispatches.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))

	const (
		streams = 120
		rounds  = 60
		freq    = 2 * time.Millisecond
	)
	var clock atomic.Int64
	now := func() time.Duration { return time.Duration(clock.Load()) }
	appraise := func(vid, serverID string, p properties.Property) (*wire.Report, error) {
		return &wire.Report{Vid: vid, ServerID: serverID, Prop: p}, nil
	}
	engines := map[string]*periodicEngine{
		"shard-a": NewFleetEngine(PeriodicConfig{Workers: 4}, now, nil, appraise).e,
		"shard-b": NewFleetEngine(PeriodicConfig{Workers: 4}, now, nil, appraise).e,
	}
	// The ring decides placement; flipping the generation remaps every
	// stream deterministically without pausing dispatch.
	rings := [2]*shard.Ring{shard.NewRing(1, 0), shard.NewRing(2, 0)}
	for _, r := range rings {
		r.Join("shard-a")
		r.Join("shard-b")
	}
	var gen atomic.Int32
	ownerOf := func(vid string) string {
		owner, _, _ := rings[gen.Load()%2].Lookup(vid)
		return owner
	}

	vids := make([]string, streams)
	for i := range vids {
		vids[i] = fmt.Sprintf("vm-%03d", i)
		if err := engines[ownerOf(vids[i])].start(vids[i], "srv", properties.CPUAvailability, freq, false); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	// firstReports closes when a dispatch first returns reports. Until then
	// no stream is exported, so those reports count as produced: the churn
	// cannot finish before either engine has run.
	firstReports := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	for _, e := range engines {
		wg.Add(1)
		go func(e *periodicEngine) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if len(e.runDue()) > 0 {
						once.Do(func() { close(firstReports) })
					}
				}
			}
		}(e)
	}

	// Churn loop: advance the clock so dispatches are live, flip the ring
	// generation, and hand off every stream the new generation reassigns.
	for round := 0; round < rounds; round++ {
		clock.Add(int64(freq))
		if round == 0 {
			<-firstReports
		}
		gen.Add(1)
		for name, e := range engines {
			exported := e.exportWhere(func(vid string) bool { return ownerOf(vid) != name })
			for _, st := range exported {
				if !engines[ownerOf(st.Vid)].importTask(st) {
					t.Errorf("round %d: stream %s/%s double-armed on %s", round, st.Vid, st.Prop, ownerOf(st.Vid))
				}
			}
		}
	}
	close(stop)
	wg.Wait()

	// No stream lost, none duplicated, each on its current owner.
	seen := make(map[string]string)
	for name, e := range engines {
		for _, k := range e.taskKeys() {
			if prev, dup := seen[k]; dup {
				t.Fatalf("stream %q armed on both %s and %s", k, prev, name)
			}
			seen[k] = name
		}
	}
	if len(seen) != streams {
		t.Fatalf("churn lost streams: %d of %d armed", len(seen), streams)
	}
	for _, vid := range vids {
		k := vid + "|" + string(properties.CPUAvailability)
		if owner := seen[k]; owner != ownerOf(vid) {
			t.Fatalf("stream %q on %s, ring owns it to %s", k, owner, ownerOf(vid))
		}
	}

	// Exact accounting on both engines: every tick resolved as produced,
	// skipped, failed, or discarded-by-stop (the export path) — an in-flight
	// appraisal crossing a handoff must not leak or double-count.
	produced := int64(0)
	for name, e := range engines {
		reg := e.reg
		ticks := reg.Counter("periodic/ticks").Value()
		resolved := reg.Counter("periodic/produced").Value() +
			reg.Counter("periodic/skipped").Value() +
			reg.Counter("periodic/failures").Value() +
			reg.Counter("periodic/stopped-discards").Value()
		if ticks != resolved {
			t.Fatalf("%s accounting: ticks=%d resolved=%d", name, ticks, resolved)
		}
		produced += reg.Counter("periodic/produced").Value()
	}
	if produced == 0 {
		t.Fatal("no reports produced under churn — the race never ran")
	}
}
