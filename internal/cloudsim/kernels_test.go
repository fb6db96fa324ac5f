package cloudsim

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"cloudmonatt/internal/properties"
)

// TestServerSimulationIndependentOfFleet: a cloud server's kernel is seeded
// from the testbed seed and the server's name, so what cloud-server-1's guest
// does is the same whether the server stands alone or beside seven busy
// neighbours. (On one shared kernel the neighbours' tick jitter and burst
// lengths were drawn from the same RNG stream in event order.)
func TestServerSimulationIndependentOfFleet(t *testing.T) {
	runtimeOn1 := func(servers int) time.Duration {
		t.Helper()
		tb := newTB(t, Options{Seed: 7, Servers: servers})
		vid, err := tb.LaunchCoResident(serverName(0), "database", 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < servers; i++ {
			if _, err := tb.LaunchCoResident(serverName(i), "file", 0); err != nil {
				t.Fatal(err)
			}
		}
		tb.RunFor(10 * time.Second)
		info, err := tb.Servers[serverName(0)].Info(vid)
		if err != nil {
			t.Fatal(err)
		}
		if info.Runtime <= 0 {
			t.Fatalf("%d servers: guest never ran", servers)
		}
		return info.Runtime
	}
	alone, inFleet := runtimeOn1(1), runtimeOn1(8)
	if alone != inFleet {
		t.Fatalf("cloud-server-1's guest ran %v alone and %v in a fleet of 8 under one seed", alone, inFleet)
	}
}

// TestSameSeedSameRun: two testbeds built from one seed in one process share
// no simulator state — their servers' kernels fire the same events and their
// guests accumulate the same runtime.
func TestSameSeedSameRun(t *testing.T) {
	run := func() []byte {
		t.Helper()
		tb := newTB(t, Options{Seed: 3, Servers: 2})
		var vids []string
		for i := 0; i < 2; i++ {
			vid, err := tb.LaunchCoResident(serverName(i), "web", -1)
			if err != nil {
				t.Fatal(err)
			}
			vids = append(vids, vid)
		}
		tb.RunFor(5 * time.Second)
		var out bytes.Buffer
		for i, vid := range vids {
			srv := tb.Servers[serverName(i)]
			info, err := srv.Info(vid)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "%s ran %v, %d events fired\n", vid, info.Runtime, srv.Hypervisor().Kernel().Fired())
		}
		return out.Bytes()
	}
	if first, second := run(), run(); !bytes.Equal(first, second) {
		t.Fatalf("same seed, different runs:\n%s---\n%s", first, second)
	}
}

// TestServerKernelsFollowTheClock: Advance is eager, so between operations
// every server's kernel stands at the clock's time — after launches,
// windowed attestations, periodic passes, a shard joining, a controller
// restart and a migration alike.
func TestServerKernelsFollowTheClock(t *testing.T) {
	tb := newTB(t, Options{Seed: 5, Servers: 3, Shards: 2})
	inStep := func(stage string) {
		t.Helper()
		now := tb.Clock.Now()
		for name, srv := range tb.Servers {
			if at := srv.Hypervisor().Kernel().Now(); at != now {
				t.Fatalf("%s: %s's kernel at %v, clock at %v", stage, name, at, now)
			}
		}
	}
	inStep("fresh testbed")
	cu, err := tb.NewCustomer("alice")
	if err != nil {
		t.Fatal(err)
	}
	vid := launch(t, cu, basicLaunch()).Vid
	inStep("launch")
	if v, err := cu.Attest(vid, properties.CPUAvailability); err != nil || !v.Healthy {
		t.Fatalf("attest: %v %v", v, err)
	}
	inStep("windowed attestation")
	if err := cu.StartPeriodic(vid, properties.CPUAvailability, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	tb.RunFor(5 * time.Second)
	inStep("periodic passes")
	if _, _, err := tb.JoinShard(); err != nil {
		t.Fatal(err)
	}
	tb.Clock.Advance(time.Second)
	inStep("JoinShard")
	if err := tb.RestartController(); err != nil {
		t.Fatal(err)
	}
	tb.Clock.Advance(time.Second)
	inStep("RestartController")
	src, _ := tb.Ctrl.VMServer(vid)
	dest, err := tb.Ctrl.MigrateVM(vid)
	if err != nil || dest == src {
		t.Fatalf("migration from %s went to %q: %v", src, dest, err)
	}
	inStep("migration")
	tb.RunFor(3 * time.Second)
	inStep("after migration")
	if v, err := cu.Attest(vid, properties.CPUAvailability); err != nil || !v.Healthy {
		t.Fatalf("post-migration attest: %v %v", v, err)
	}
	inStep("attestation at the new home")
}
