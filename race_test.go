//go:build race

package wspeer_test

// raceEnabled: under the race detector sync.Pool drops a share of what is
// put back, so the pooled scanner and writer are rebuilt at random and
// allocation counts are not exact.
const raceEnabled = true
