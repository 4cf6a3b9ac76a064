//go:build !race

package nn

// raceEnabled reports that the race detector is active; see
// race_enabled_test.go.
const raceEnabled = false
