//go:build !race

package simulation

const raceBuild = false
