//go:build !race

package engine

const raceBuild = false
