package attestsrv_test

import (
	"testing"
	"time"

	"cloudmonatt/internal/attestsrv"
	"cloudmonatt/internal/cloudsim"
	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/metrics"
	"cloudmonatt/internal/oracle"
	"cloudmonatt/internal/properties"
)

// TestImportShardStateHostile hands a shard typed states no honest export
// produces. Whatever it arms, one RunDue must then tick each armed stream
// exactly once (a double-armed stream ticks twice), nothing may panic, and
// the shard's accounting must still hold under the whole-run oracle.
func TestImportShardStateHostile(t *testing.T) {
	task := func(vid, srv string, due time.Duration) attestsrv.PeriodicTaskState {
		return attestsrv.PeriodicTaskState{Vid: vid, ServerID: srv, Prop: properties.RuntimeIntegrity, Freq: 4 * time.Second, NextDue: due}
	}
	rows := []struct {
		name  string
		tasks func(vid, srv string, now time.Duration) []attestsrv.PeriodicTaskState
		armed int
	}{
		{"duplicate (vid, prop)", func(vid, srv string, now time.Duration) []attestsrv.PeriodicTaskState {
			return []attestsrv.PeriodicTaskState{task(vid, srv, now), task(vid, srv, now-time.Second)}
		}, 1},
		{"NextDue in the past", func(vid, srv string, now time.Duration) []attestsrv.PeriodicTaskState {
			return []attestsrv.PeriodicTaskState{task(vid, srv, now-time.Hour)}
		}, 1},
		{"task without its VM record", func(_, srv string, now time.Duration) []attestsrv.PeriodicTaskState {
			return []attestsrv.PeriodicTaskState{task("vm-ghost", srv, now)}
		}, 0},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			tb, vid := newTB(t, cloudsim.Options{Seed: 49})
			srv, _ := tb.Ctrl.VMServer(vid)
			as := tb.Attest
			now := tb.Clock.Now()
			if got := as.ImportShardState(attestsrv.ShardState{Tasks: row.tasks(vid, srv, now)}); got != row.armed {
				t.Fatalf("ImportShardState armed %d, want %d", got, row.armed)
			}
			if keys := as.PeriodicTaskKeys(); len(keys) != row.armed {
				t.Fatalf("armed streams %v, want %d", keys, row.armed)
			}
			as.RunDue()
			if ticks := as.Metrics().Counter("periodic/ticks").Value(); ticks != int64(row.armed) {
				t.Fatalf("one RunDue ticked %d times over %d armed streams", ticks, row.armed)
			}
			if due, ok := as.NextDue(); ok != (row.armed > 0) || (ok && due <= now) {
				t.Fatalf("next deadline %v (armed %v), want one after %v", due, ok, now)
			}
			signer := cryptoutil.MustIdentity("checkpoint")
			for _, v := range oracle.Check(oracle.Run{
				Ledger:        tb.Ledger,
				Checkpoint:    tb.Ledger.Checkpoint(signer),
				CheckpointKey: signer.Public(),
				Shards:        map[string]metrics.RegistrySnapshot{as.Shard(): as.Metrics().Snapshot()},
			}) {
				t.Errorf("oracle: %v", v)
			}
		})
	}
}
