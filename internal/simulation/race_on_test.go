//go:build race

package simulation

// raceBuild: the race detector slows every memory access ten- to twentyfold,
// so wall-clock bounds are asserted on uninstrumented builds only.
const raceBuild = true
