package cloudsim

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

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

// BenchmarkWorkload runs two of the repository benchmark's workloads
// (benchmark/workloads.go) as they are set up there: the same testbed, the
// same launch request, the same warm-up and the same operation, numbered
// from the same first op. Beside time per op it reports allocations,
// signatures, signature checks and ledger appends per op. At one P its
// allocations per op are the benchmark's allocs_per_op, which counts the
// first 1 000 attest-steady ops and the first 100 churn cycles:
//
//	go test -run '^$' -bench 'Workload/attest-steady' -benchtime 1000x -cpu 1 ./internal/cloudsim/
//	go test -run '^$' -bench 'Workload/churn' -benchtime 100x -cpu 1 ./internal/cloudsim/
//
// Add -cpuprofile cpu.out for a profile of the same operations.
func BenchmarkWorkload(b *testing.B) {
	// attest-steady alternates the two integrity properties on the one VM
	// of a one-server testbed.
	b.Run("attest-steady", func(b *testing.B) {
		tb := benchTestbed(b, Options{Seed: 1, Servers: 1})
		cu, err := tb.NewCustomer("bench")
		if err != nil {
			b.Fatal(err)
		}
		res, err := cu.Launch(benchLaunch())
		if err != nil || !res.OK {
			b.Fatalf("launch: %v %v", res, err)
		}
		props := []properties.Property{properties.StartupIntegrity, properties.RuntimeIntegrity}
		op := func(i int) error { return benchAttest(cu, res.Vid, props[i%len(props)]) }
		for i := 0; i < benchWarmupOps; i++ {
			if err := op(i); err != nil {
				b.Fatal(err)
			}
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
		measureWorkload(b, tb, op)
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

// measureWorkload times b.N ops from number benchWarmupOps on, from a
// collected heap as the benchmark starts its timed region, and reports
// what they cost per op.
func measureWorkload(b *testing.B, tb *Testbed, op func(i int) error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ops0, appends0 := cryptoutil.Ops(), tb.Ledger.Len()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(benchWarmupOps + i); err != nil {
			b.Fatalf("op %d: %v", benchWarmupOps+i, err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	ops, n := cryptoutil.Ops().Sub(ops0), float64(b.N)
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/n, "mallocs/op")
	b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/1024/n, "KiB/op")
	b.ReportMetric(float64(ops.Sign)/n, "signs/op")
	b.ReportMetric(float64(ops.Verify)/n, "verifies/op")
	b.ReportMetric(float64(tb.Ledger.Len()-appends0)/n, "appends/op")
}
