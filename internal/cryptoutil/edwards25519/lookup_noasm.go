// Like perkey.go, this file is not copied from the Go tree.

//go:build !amd64 || purego

package edwards25519

// selectAffine sets dest = x·Q for the table v of Q, −8 ≤ x ≤ 8, in
// constant time: without the SSE2 lookup of lookup_amd64.s, it is the
// copied SelectInto.
func (v *affineLookupTable) selectAffine(dest *affineCached, x int8) {
	v.SelectInto(dest, x)
}
