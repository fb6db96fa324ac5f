// Like perkey_test.go, this file is not copied from the Go tree.

package edwards25519

import "testing"

// TestSelectAffineMatchesSelectInto holds the lookup scalarBaseMult makes,
// SSE2 on amd64, to the copied SelectInto on every base-point table and
// every digit, into a destination that holds another entry beforehand.
func TestSelectAffineMatchesSelectInto(t *testing.T) {
	for i := range basepointTable() {
		table := &basepointTable()[i]
		for x := int8(-8); x <= 8; x++ {
			var want affineCached
			table.SelectInto(&want, x)
			got := table.points[(i+int(x)+8)%8]
			table.selectAffine(&got, x)
			if got != want {
				t.Fatalf("table %d, digit %d: selectAffine gives %v, SelectInto %v", i, x, got, want)
			}
		}
	}
}

// BenchmarkSelectAffine times one lookup with its negation, the step
// scalarBaseMult makes 64 times, beside the copied SelectInto.
func BenchmarkSelectAffine(b *testing.B) {
	table := &basepointTable()[5]
	var dest affineCached
	b.Run("selectAffine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			table.selectAffine(&dest, int8(i%17-8))
		}
	})
	b.Run("SelectInto", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			table.SelectInto(&dest, int8(i%17-8))
		}
	})
}
