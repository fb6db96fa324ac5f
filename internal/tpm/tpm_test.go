package tpm

import (
	"crypto/rand"
	"testing"
	"testing/quick"

	"cloudmonatt/internal/cryptoutil"
)

func newTPM(t *testing.T) *TPM {
	t.Helper()
	tp, err := New(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestExtendChangesPCR(t *testing.T) {
	tp := newTPM(t)
	before, _ := tp.ReadPCR(0)
	if _, err := tp.Measure(0, "fw", []byte("firmware")); err != nil {
		t.Fatal(err)
	}
	after, _ := tp.ReadPCR(0)
	if before == after {
		t.Fatal("Extend did not change the PCR")
	}
	other, _ := tp.ReadPCR(1)
	if other != before {
		t.Fatal("Extend changed an unrelated PCR")
	}
}

func TestExtendOrderSensitive(t *testing.T) {
	a, b := newTPM(t), newTPM(t)
	a.Measure(0, "x", []byte("x"))
	a.Measure(0, "y", []byte("y"))
	b.Measure(0, "y", []byte("y"))
	b.Measure(0, "x", []byte("x"))
	pa, _ := a.ReadPCR(0)
	pb, _ := b.ReadPCR(0)
	if pa == pb {
		t.Fatal("PCR value insensitive to measurement order")
	}
}

func TestQuickExtendDeterministic(t *testing.T) {
	// Property: two TPMs fed the same measurement sequence agree on all PCRs.
	f := func(blobs [][]byte) bool {
		a, _ := New(rand.Reader)
		b, _ := New(rand.Reader)
		for i, blob := range blobs {
			pcr := i % NumPCRs
			a.Measure(pcr, "m", blob)
			b.Measure(pcr, "m", blob)
		}
		for p := 0; p < NumPCRs; p++ {
			va, _ := a.ReadPCR(p)
			vb, _ := b.ReadPCR(p)
			if va != vb {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPCRRangeErrors(t *testing.T) {
	tp := newTPM(t)
	if err := tp.Extend(-1, "x", Digest{}); err == nil {
		t.Fatal("negative PCR accepted")
	}
	if err := tp.Extend(NumPCRs, "x", Digest{}); err == nil {
		t.Fatal("out-of-range PCR accepted")
	}
	if _, err := tp.ReadPCR(99); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	if err := tp.ResetPCR(-2); err == nil {
		t.Fatal("out-of-range reset accepted")
	}
	if _, err := tp.GenerateQuote([]int{0, 77}, cryptoutil.Nonce{}); err == nil {
		t.Fatal("quote over invalid PCR accepted")
	}
}

func TestResetPCR(t *testing.T) {
	tp := newTPM(t)
	tp.Measure(PCRVMImage, "img", []byte("image-1"))
	v, _ := tp.ReadPCR(PCRVMImage)
	if v == (Digest{}) {
		t.Fatal("measure did not set PCR")
	}
	tp.ResetPCR(PCRVMImage)
	v, _ = tp.ReadPCR(PCRVMImage)
	if v != (Digest{}) {
		t.Fatal("reset did not clear PCR")
	}
}

func TestQuoteRoundTrip(t *testing.T) {
	tp := newTPM(t)
	tp.Measure(0, "fw", []byte("firmware"))
	tp.Measure(1, "hv", []byte("hypervisor"))
	nonce := cryptoutil.MustNonce()
	q, err := tp.GenerateQuote([]int{0, 1}, nonce)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyQuote(q, tp.AIK(), nonce); err != nil {
		t.Fatalf("genuine quote rejected: %v", err)
	}
}

func TestQuoteRejectsWrongNonce(t *testing.T) {
	tp := newTPM(t)
	q, _ := tp.GenerateQuote([]int{0}, cryptoutil.MustNonce())
	if err := VerifyQuote(q, tp.AIK(), cryptoutil.MustNonce()); err == nil {
		t.Fatal("quote with wrong nonce accepted (replay window)")
	}
}

func TestQuoteRejectsTampering(t *testing.T) {
	tp := newTPM(t)
	tp.Measure(0, "fw", []byte("firmware"))
	nonce := cryptoutil.MustNonce()
	q, _ := tp.GenerateQuote([]int{0}, nonce)
	q.Values[0][0] ^= 1
	if err := VerifyQuote(q, tp.AIK(), nonce); err == nil {
		t.Fatal("tampered quote accepted")
	}
	// The signed body carries each PCR index as one byte, so index+256
	// signs like the genuine index; the range check must refuse it.
	q, _ = tp.GenerateQuote([]int{0}, nonce)
	q.PCRs[0] += 256
	if err := VerifyQuote(q, tp.AIK(), nonce); err == nil {
		t.Fatal("quote with an aliased PCR index accepted")
	}
}

func TestQuoteRejectsWrongAIK(t *testing.T) {
	tp, other := newTPM(t), newTPM(t)
	nonce := cryptoutil.MustNonce()
	q, _ := tp.GenerateQuote([]int{0}, nonce)
	if err := VerifyQuote(q, other.AIK(), nonce); err == nil {
		t.Fatal("quote accepted under foreign AIK")
	}
	if err := VerifyQuote(nil, tp.AIK(), nonce); err == nil {
		t.Fatal("nil quote accepted")
	}
}

func TestReplayLogMatchesPCRs(t *testing.T) {
	tp := newTPM(t)
	tp.Measure(PCRFirmware, "fw", []byte("firmware"))
	tp.Measure(PCRHypervisor, "hv", []byte("xen-4.2"))
	tp.Measure(PCRHostOS, "dom0", []byte("dom0-kernel"))
	tp.Measure(PCRHostOS, "dom0-user", []byte("dom0-userland"))
	replayed := ReplayLog([NumPCRs]Digest{}, tp.Log())
	for p := 0; p < NumPCRs; p++ {
		got, _ := tp.ReadPCR(p)
		if replayed[p] != got {
			t.Fatalf("replayed PCR %d disagrees with device", p)
		}
	}
}

func TestReplayLogDetectsTamperedLog(t *testing.T) {
	tp := newTPM(t)
	tp.Measure(0, "fw", []byte("firmware"))
	log := tp.Log()
	log[0].Measurement[0] ^= 1 // attacker edits the log
	replayed := ReplayLog([NumPCRs]Digest{}, log)
	actual, _ := tp.ReadPCR(0)
	if replayed[0] == actual {
		t.Fatal("tampered log still explains the PCR")
	}
}

// The quote and the log QuoteWithLog returns describe one instant: whatever
// a second goroutine extends meanwhile, every returned log suffix replayed on
// top of the prefix before it lands on the quoted values. Read under two lock
// acquisitions (GenerateQuote, then Log) the same loop draws logs that do not
// explain their quotes (18 of 117 in a -race run), which an appraiser reads
// as a compromised platform.
func TestQuoteWithLogIsOneInstant(t *testing.T) {
	tp := newTPM(t)
	tp.Measure(PCRFirmware, "fw", []byte("firmware"))
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tp.Extend(PCRVMImage, "vm-image", Digest{byte(i), byte(i >> 8)})
		}
	}()
	pcrs := []int{PCRFirmware, PCRVMImage}
	nonce := cryptoutil.MustNonce()
	var bank [NumPCRs]Digest // what the events seen so far replay to
	seen := 0
	for n := 0; n <= 200; n++ {
		if n == 200 { // the last quote is over the finished log
			close(stop)
			<-done
		}
		q, suffix, err := tp.QuoteWithLog(pcrs, nonce, seen)
		if err != nil {
			t.Fatal(err)
		}
		bank = ReplayLog(bank, suffix)
		seen += len(suffix)
		for i, p := range q.PCRs {
			if bank[p] != q.Values[i] {
				t.Fatalf("quote %d: %d events do not explain quoted PCR %d", n, seen, p)
			}
		}
	}
	log := tp.Log()
	if seen != len(log) || ReplayLog([NumPCRs]Digest{}, log) != bank {
		t.Fatalf("suffixes replayed in turn (%d events) disagree with the whole log (%d)", seen, len(log))
	}
}

func TestQuoteWithLogClampsFrom(t *testing.T) {
	tp := newTPM(t)
	tp.Measure(0, "fw", []byte("firmware"))
	tp.Measure(1, "hv", []byte("hypervisor"))
	for _, tc := range []struct{ from, want int }{{-3, 2}, {0, 2}, {1, 1}, {2, 0}, {99, 0}} {
		_, suffix, err := tp.QuoteWithLog([]int{0, 1}, cryptoutil.Nonce{}, tc.from)
		if err != nil {
			t.Fatal(err)
		}
		if len(suffix) != tc.want {
			t.Fatalf("from %d: %d events, want %d", tc.from, len(suffix), tc.want)
		}
	}
	_, suffix, _ := tp.QuoteWithLog([]int{0}, cryptoutil.Nonce{}, 1)
	suffix[0].Description = "mutated"
	if tp.Log()[1].Description != "hv" {
		t.Fatal("external mutation reached the TPM's log")
	}
	if _, _, err := tp.QuoteWithLog([]int{77}, cryptoutil.Nonce{}, 0); err == nil {
		t.Fatal("out-of-range PCR quoted")
	}
}

func TestLogIsCopied(t *testing.T) {
	tp := newTPM(t)
	tp.Measure(0, "fw", []byte("firmware"))
	log := tp.Log()
	log[0].Description = "mutated"
	if tp.Log()[0].Description != "fw" {
		t.Fatal("external mutation reached the TPM's log")
	}
}

func BenchmarkExtend(b *testing.B) {
	tp, _ := New(rand.Reader)
	data := make([]byte, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tp.Measure(i%NumPCRs, "m", data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuote(b *testing.B) {
	tp, _ := New(rand.Reader)
	tp.Measure(0, "fw", []byte("firmware"))
	tp.Measure(1, "hv", []byte("hypervisor"))
	nonce := cryptoutil.MustNonce()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := tp.GenerateQuote([]int{0, 1, 2, 3, 8}, nonce)
		if err != nil {
			b.Fatal(err)
		}
		if err := VerifyQuote(q, tp.AIK(), nonce); err != nil {
			b.Fatal(err)
		}
	}
}
