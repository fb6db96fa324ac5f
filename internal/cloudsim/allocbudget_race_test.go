//go:build race

package cloudsim

// attestationAllocBudget is the count of allocbudget_norace_test.go under
// -race, where sync.Pool drops a share of what is put back: two more per
// attestation on Go 1.24.
const attestationAllocBudget = 89
