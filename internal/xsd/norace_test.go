//go:build !race

package xsd

const raceEnabled = false
