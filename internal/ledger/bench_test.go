package ledger

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// BenchmarkLedgerAppend measures group-commit throughput under parallel
// appenders. More concurrent appenders means larger amortized batches per
// flush; the mean observed batch size is reported alongside ns/op so
// future PRs can track how well the committer coalesces load.
func BenchmarkLedgerAppend(b *testing.B) {
	payload := make([]byte, 256)
	for _, appenders := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("appenders=%d", appenders), func(b *testing.B) {
			l, err := Open(Options{MaxSegmentBytes: 64 << 20})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N / appenders
			if per == 0 {
				per = 1
			}
			for g := 0; g < appenders; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					vid := fmt.Sprintf("vm-%04d", g)
					for i := 0; i < per; i++ {
						if _, err := l.Append(Entry{Kind: KindAppraisal, Vid: vid, Prop: "runtime-integrity", Payload: payload}); err != nil {
							b.Error(err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(l.Metrics().IntSummary("ledger/batch-size").Snapshot().Mean(), "entries/flush")
			if _, err := l.Verify(); err != nil {
				b.Fatal(err)
			}
		})
	}
	_ = runtime.NumCPU()
}

// BenchmarkLedgerAppendFsync is the durable variant: every flush fsyncs,
// so batch amortization is what keeps throughput up.
func BenchmarkLedgerAppendFsync(b *testing.B) {
	l, err := Open(Options{Dir: b.TempDir(), MaxSegmentBytes: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := l.Append(Entry{Kind: KindAppraisal, Vid: "vm-0001", Payload: []byte("x")}); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(l.Metrics().IntSummary("ledger/batch-size").Snapshot().Mean(), "entries/flush")
}

// BenchmarkLedgerVerify measures full-chain replay cost.
func BenchmarkLedgerVerify(b *testing.B) {
	l, err := Open(Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 2048; i++ {
		if _, err := l.Append(Entry{Kind: KindAppraisal, Vid: "vm-0001", Payload: []byte("payload")}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}
