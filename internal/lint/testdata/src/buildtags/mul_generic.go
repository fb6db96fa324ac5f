//go:build !amd64

package buildtags

func mul(x, y uint64) uint64 { return x * y }
