//go:build race

package xsd

// raceEnabled: the race detector allocates, so allocation counts are not
// exact under it.
const raceEnabled = true
