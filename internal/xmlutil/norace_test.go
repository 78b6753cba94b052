//go:build !race

package xmlutil

const raceEnabled = false
