//go:build !race

package cloudsim

// attestationAllocBudget is what one customer attestation on a one-server
// testbed allocates on Go 1.24, summed over the four entities and three RPC
// hops it crosses. DESIGN.md §14 breaks the count down by source.
const attestationAllocBudget = 87
