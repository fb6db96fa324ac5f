package buildtags

// mul has no body here: on amd64 it would be written in assembly.
//
//go:noescape
func mul(x, y uint64) uint64
