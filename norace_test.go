//go:build !race

package wspeer_test

const raceEnabled = false
