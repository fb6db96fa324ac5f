package cloudsim

import (
	"testing"

	"cloudmonatt/internal/properties"
)

// attestationAllocBudget is what one customer attestation on a one-server
// testbed may allocate, summed over the four entities and three RPC hops it
// crosses: 87 on Go 1.24 (89 under -race, where sync.Pool drops a share of
// what is put back), plus ~10 % headroom for other toolchains. DESIGN.md §14
// breaks the count down by source.
const attestationAllocBudget = 96

// TestAttestationAllocBudget pins the allocation count of the benchmark's
// attest-steady shape: startup and runtime integrity alternating on one VM
// of a one-server testbed. The count covers everything an attestation does —
// nonces, three RPC hops, six quote and signed-body hashes, the ledger entry
// and the spans.
func TestAttestationAllocBudget(t *testing.T) {
	tb := newTB(t, Options{Seed: 1, Servers: 1})
	cu, err := tb.NewCustomer("alice")
	if err != nil {
		t.Fatal(err)
	}
	vid := launch(t, cu, basicLaunch()).Vid
	props := []properties.Property{properties.StartupIntegrity, properties.RuntimeIntegrity}
	i := 0
	attest := func() {
		p := props[i%len(props)]
		i++
		if v, err := cu.Attest(vid, p); err != nil || !v.Healthy {
			t.Fatalf("attest %s: %v %v", p, v, err)
		}
	}
	for i < 2*sessionUses {
		attest()
	}
	// A multiple of sessionUses attestations, so key rotations count exactly.
	got := testing.AllocsPerRun(8*sessionUses, attest)
	t.Logf("one attestation allocates %.1f times (budget %d)", got, attestationAllocBudget)
	if got > attestationAllocBudget {
		t.Fatalf("one attestation allocates %.1f times, want at most %d", got, attestationAllocBudget)
	}
}
