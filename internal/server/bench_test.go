package server

import (
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"cloudmonatt/internal/image"
	"cloudmonatt/internal/pca"
	"cloudmonatt/internal/sim"
	"cloudmonatt/internal/vclock"
)

// BenchmarkServerVirtualSecond measures one virtual second of one cloud
// server at the shape each attest-fleet server hosts: Dom0 and four `file`
// guests on two pCPUs, built by New and Launch and advanced through the
// testbed clock. Unlike xen's BenchmarkHypervisorVirtualSecond it runs the
// model with its Monitor Module attached, so it also times what an
// unwatched server's kernel pays for the monitor. It reports ns/event, and
// fails if a warm virtual second allocates.
func BenchmarkServerVirtualSecond(b *testing.B) {
	ca, err := pca.New("pca", rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	clock := vclock.New(sim.NewKernel(17))
	srv := newServer(b, "srv-1", clock, ca)
	flavor, err := image.FlavorByName("small")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		vid := fmt.Sprintf("vm-%d", i+1)
		if err := srv.Launch(LaunchSpec{Vid: vid, ImageName: "cirros", ImageDigest: sha256.Sum256([]byte(vid)), Flavor: flavor, Workload: "file", Pin: -1}); err != nil {
			b.Fatal(err)
		}
	}
	second := func() { clock.Advance(time.Second) }
	clock.Advance(2 * time.Second)
	if allocs := testing.AllocsPerRun(2, second); allocs != 0 {
		b.Fatalf("a warm virtual second allocates %.0f times, want 0", allocs)
	}
	k := srv.hv.Kernel()
	fired := k.Fired()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		second()
	}
	b.StopTimer()
	fired = k.Fired() - fired
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(fired), "ns/event")
	b.ReportMetric(float64(fired)/float64(b.N), "events/vsec")
}
