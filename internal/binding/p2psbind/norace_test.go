//go:build !race

package p2psbind

const raceEnabled = false
