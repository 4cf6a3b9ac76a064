//go:build race

package nn

// raceEnabled reports that the race detector is active. Allocation-count
// assertions skip under it: race instrumentation allocates shadow state,
// which is not the regression those tests exist to catch.
const raceEnabled = true
