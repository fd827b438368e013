//go:build race

package engine

// raceBuild: the race detector changes what sync.Pool keeps, so allocation
// counts are asserted on uninstrumented builds only.
const raceBuild = true
