// The fixed-base table lookup in SSE2. Like perkey.go, this file and
// lookup_amd64.s are not copied from the Go tree.

//go:build !purego

package edwards25519

// selectAffine sets dest = x·Q for the table v of Q, −8 ≤ x ≤ 8, in
// constant time, as the copied SelectInto does: lookupAffine picks |x|·Q
// and CondNeg negates it if x < 0.
func (v *affineLookupTable) selectAffine(dest *affineCached, x int8) {
	xmask := x >> 7
	lookupAffine(dest, v, uint64(uint8((x+xmask)^xmask)))
	dest.CondNeg(int(xmask & 1))
}

// lookupAffine sets dest to table.points[xabs−1], or to the identity if
// xabs is 0, for xabs ≤ 8. It reads all eight entries whatever xabs is and
// keeps the one whose index matches under an SSE2 compare mask, so neither
// its memory accesses nor its branches depend on xabs.
//
//go:noescape
func lookupAffine(dest *affineCached, table *affineLookupTable, xabs uint64)
