//go:build ignore

package buildtags

// A generator's source, excluded from every build: loading it would
// redeclare mul.
func mul(x, y uint64) uint64 { return 0 }
