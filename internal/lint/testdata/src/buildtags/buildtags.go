// Package buildtags declares mul twice, once per side of a build
// constraint, as an assembly stub and its generic fallback do. The loader
// must pick exactly one declaration for the host's GOARCH.
package buildtags

func square(x uint64) uint64 { return mul(x, x) }
