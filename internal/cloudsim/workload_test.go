package cloudsim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"cloudmonatt/internal/controller"
	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/properties"
)

// benchWarmupOps is the repository benchmark's warmupOps: the operations a
// round runs before its timed region, the first timed one being number 8.
const benchWarmupOps = 8

// benchLaunch is the repository benchmark's launchRequest, the one VM shape
// all its workloads launch.
func benchLaunch() controller.LaunchRequest {
	return controller.LaunchRequest{
		ImageName: "ubuntu",
		Flavor:    "small",
		Workload:  "file",
		Props:     properties.All,
		Allowlist: []string{"init", "sshd", "cron", "rsyslogd", "agetty"},
		MinShare:  0.1,
		Pin:       -1,
	}
}

func benchAttest(cu *Customer, vid string, p properties.Property) error {
	v, err := cu.Attest(vid, p)
	if err != nil {
		return err
	}
	if !v.Healthy {
		return fmt.Errorf("healthy VM %s reported unhealthy for %s: %s", vid, p, v.Reason)
	}
	return nil
}

// BenchmarkWorkload runs the repository benchmark's four workloads
// (benchmark/workloads.go) as they are set up there: the same testbed, the
// same launch request, the same warm-up and the same operation, numbered
// from the same first op. Beside time per op it reports allocations,
// signatures, signature checks and ledger appends per unit of work, the
// benchmark's "op": an attestation, a delivered periodic report or a churn
// cycle. At one P its allocations per unit are the benchmark's
// allocs_per_op, which counts the first 1 000 attest-steady ops, 32
// attest-fleet visits, 3 periodic steps and 100 churn cycles:
//
//	go test -run '^$' -bench 'Workload/attest-steady' -benchtime 1000x -cpu 1 ./internal/cloudsim/
//	go test -run '^$' -bench 'Workload/attest-fleet' -benchtime 32x -cpu 1 ./internal/cloudsim/
//	go test -run '^$' -bench 'Workload/periodic' -benchtime 3x -cpu 1 ./internal/cloudsim/
//	go test -run '^$' -bench 'Workload/churn' -benchtime 100x -cpu 1 ./internal/cloudsim/
//
// Add -cpuprofile cpu.out for a profile of the same operations.
func BenchmarkWorkload(b *testing.B) {
	// attest-steady alternates the two integrity properties on the one VM
	// of a one-server testbed.
	b.Run("attest-steady", func(b *testing.B) {
		tb, cu, vids := benchFleet(b, Options{Seed: 1, Servers: 1}, 1)
		props := []properties.Property{properties.StartupIntegrity, properties.RuntimeIntegrity}
		op := func(i int) (int, error) { return 1, benchAttest(cu, vids[0], props[i%len(props)]) }
		for i := 0; i < benchWarmupOps; i++ {
			if _, err := op(i); err != nil {
				b.Fatal(err)
			}
		}
		measureWorkload(b, tb, op)
	})
	// attest-fleet visits 32 VMs on eight servers and four shards in a
	// seed-shuffled order, attesting all four properties on each visit.
	b.Run("attest-fleet", func(b *testing.B) {
		tb, cu, vids := benchFleet(b, Options{Seed: 1, Servers: 8, Shards: 4}, 32)
		props := properties.All
		op := func(i int) (int, error) {
			var errs []error
			for k := i * len(props); k < (i+1)*len(props); k++ {
				errs = append(errs, benchAttest(cu, vids[(k/len(props))%len(vids)], props[k%len(props)]))
			}
			return len(props), errors.Join(errs...)
		}
		for i := 0; i < benchWarmupOps; i++ {
			if _, err := op(i); err != nil {
				b.Fatal(err)
			}
		}
		measureWorkload(b, tb, op)
	})
	// periodic arms two streams on each of 16 VMs on four servers; an op
	// runs one virtual minute, then drains and end-verifies every stream.
	b.Run("periodic", func(b *testing.B) {
		tb, cu, vids := benchFleet(b, Options{Seed: 1, Servers: 4}, 16)
		streams := []struct {
			prop properties.Property
			freq time.Duration
		}{{properties.RuntimeIntegrity, 5 * time.Second}, {properties.CPUAvailability, 10 * time.Second}}
		for _, vid := range vids {
			for _, s := range streams {
				if err := cu.StartPeriodic(vid, s.prop, s.freq); err != nil {
					b.Fatal(err)
				}
			}
		}
		op := func(int) (units int, err error) {
			tb.RunFor(time.Minute)
			for _, vid := range vids {
				for _, s := range streams {
					vs, ferr := cu.FetchPeriodic(vid, s.prop)
					err = errors.Join(err, ferr)
					for _, v := range vs {
						if !v.Healthy {
							err = errors.Join(err, fmt.Errorf("healthy VM %s reported unhealthy for %s: %s", vid, s.prop, v.Reason))
						}
					}
					units += len(vs)
				}
			}
			return units, err
		}
		if _, err := op(0); err != nil {
			b.Fatal(err)
		}
		measureWorkload(b, tb, op)
	})
	// churn is one customer lifetime per op on a two-server testbed:
	// connect, launch, attest twice, terminate, close. One warm-up cycle
	// dials the channels that outlive customers.
	b.Run("churn", func(b *testing.B) {
		tb := benchTestbed(b, Options{Seed: 1, Servers: 2})
		op := func(i int) (err error) {
			cu, err := tb.NewCustomer(fmt.Sprintf("churn-%d", i))
			if err != nil {
				return err
			}
			defer func() { err = errors.Join(err, cu.Close()) }()
			res, err := cu.Launch(benchLaunch())
			if err != nil {
				return err
			}
			if !res.OK {
				return fmt.Errorf("launch rejected: %s", res.Reason)
			}
			for _, p := range []properties.Property{properties.StartupIntegrity, properties.RuntimeIntegrity} {
				if err := benchAttest(cu, res.Vid, p); err != nil {
					return err
				}
			}
			return cu.Terminate(res.Vid)
		}
		if err := op(0); err != nil {
			b.Fatal(err)
		}
		measureWorkload(b, tb, func(i int) (int, error) { return 1, op(i) })
	})
}

// benchTestbed builds a testbed that the oracle judges when the benchmark
// ends.
func benchTestbed(b *testing.B, opts Options) *Testbed {
	tb, err := New(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { checkOracle(b, tb) })
	return tb
}

// benchFleet builds a workload's testbed as the benchmark's setUp does: one
// customer launches vms VMs, which it visits in the order the seed shuffles
// them into.
func benchFleet(b *testing.B, opts Options, vms int) (*Testbed, *Customer, []string) {
	tb := benchTestbed(b, opts)
	cu, err := tb.NewCustomer("bench")
	if err != nil {
		b.Fatal(err)
	}
	vids := make([]string, vms)
	for i := range vids {
		res, err := cu.Launch(benchLaunch())
		if err != nil || !res.OK {
			b.Fatalf("launch %d: %v %v", i, res, err)
		}
		vids[i] = res.Vid
	}
	rand.New(rand.NewSource(opts.Seed)).Shuffle(len(vids), func(i, j int) { vids[i], vids[j] = vids[j], vids[i] })
	return tb, cu, vids
}

// measureWorkload times b.N ops from number benchWarmupOps on, from a
// collected heap as the benchmark starts its timed region, and reports
// what they cost per unit of work. An op returns the units it completed.
func measureWorkload(b *testing.B, tb *Testbed, op func(i int) (int, error)) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ops0, appends0 := cryptoutil.Ops(), tb.Ledger.Len()
	units := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, err := op(benchWarmupOps + i)
		if err != nil {
			b.Fatalf("op %d: %v", benchWarmupOps+i, err)
		}
		units += u
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	ops, n := cryptoutil.Ops().Sub(ops0), float64(max(units, 1))
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/n, "mallocs/op")
	b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/1024/n, "KiB/op")
	b.ReportMetric(float64(ops.Sign)/n, "signs/op")
	b.ReportMetric(float64(ops.Verify)/n, "verifies/op")
	b.ReportMetric(float64(tb.Ledger.Len()-appends0)/n, "appends/op")
}
