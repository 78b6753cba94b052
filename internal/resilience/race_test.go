//go:build race

package resilience

// raceEnabled: under the race detector sync.Pool drops a share of what is
// put back, so allocation counts are not exact.
const raceEnabled = true
