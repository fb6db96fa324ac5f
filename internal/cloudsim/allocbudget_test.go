package cloudsim

import (
	"testing"

	"cloudmonatt/internal/properties"
)

// TestAttestationAllocBudget pins the allocation count of the benchmark's
// attest-steady shape: startup and runtime integrity alternating on one VM
// of a one-server testbed. The count covers everything an attestation does —
// nonces, three RPC hops, six quote and signed-body hashes, the ledger entry
// and the spans. The budget is the count measured on the Go release CI pins
// (attestationAllocBudget, one constant per race mode), with no headroom,
// so a single allocation added to the path fails here; a change that saves
// allocations lowers the constant to the new count.
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
